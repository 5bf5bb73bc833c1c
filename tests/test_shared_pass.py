"""shared_pass's per-block tasks on the calling thread and the helper
threads: the values of a whole-batch run, the exception of a serial one,
no task left running and no thread started for a one-task segment."""

import sys
import threading
import time

import numpy as np
import pytest

from fbmlab import concentration, fbm
from fbmlab.cli import main
from fbmlab.concentration import (
    EnsembleShare,
    fernique_share,
    hoeffding_large_share,
    hoeffding_small_share,
    independent_pairs,
    pair_seeds,
    shared_pass,
    solution_d_inf,
    stability_share,
    verify_hoeffding_large_time,
)
from fbmlab.fbm import HurstParam, sample_fbm_circulant_batch
from fbmlab.grid import BLOCK_PATHS, TimeGrid
from fbmlab.sde import BlowUpError

B = BLOCK_PATHS
SIZES = [1, B - 1, B, B + 1, 3 * B + 5]
HP, SEED = HurstParam(0.75), 7
#: numpy's error state outside any np.errstate
NUMPY_DEFAULT = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}


@pytest.fixture
def helpers(workers):
    # three workers, so that tasks run on two helper threads on any machine
    workers(3)


def as_values(share: EnsembleShare) -> EnsembleShare:
    return share._replace(finish=lambda *values: values)


def assert_equal_values(streamed, whole):
    assert len(streamed) == len(whole)
    assert all(np.array_equal(s, w) for s, w in zip(streamed, whole))


@pytest.mark.parametrize("n", SIZES)
def test_primary_tasks_equal_whole_batch_statistics(helpers, n):
    # fernique, hoeffding-small and three large-time horizons read one
    # ensemble in one pass
    shares = [fernique_share(0.75, 0.6, 1.0, n, 32, SEED),
              hoeffding_small_share(0.75, 1.0, n, 32, SEED),
              *(hoeffding_large_share(0.75, T, n, 32, SEED, -1.0, t_draw=1.0)
                for T in (1.0, 2.0, 4.0))]
    assert len({s.ensemble for s in shares}) == 1
    batch = sample_fbm_circulant_batch(TimeGrid(1.0, 32), HP, n, SEED)
    results = list(shared_pass([as_values(s) for s in shares]))
    for share, streamed in zip(shares, results):
        assert_equal_values(streamed, [stat(batch) for stat in share.reads.values()])


@pytest.mark.parametrize("n", SIZES)
def test_pair_tasks_equal_whole_batch_statistics(helpers, n):
    # the stability share and the solution distances of t1-moments and
    # gaussian-tail read the pair ensemble in one pass
    grid = TimeGrid(0.5, 32)
    shares = [stability_share(grid, HP, 0.6, -1.0, n, SEED),
              EnsembleShare(grid, HP, pair_seeds(SEED), n,
                            {"solution_d_inf": solution_d_inf(grid, -1.0)}, None)]
    pairs = independent_pairs(grid, HP, n, SEED)
    results = list(shared_pass([as_values(s) for s in shares]))
    for share, streamed in zip(shares, results):
        assert_equal_values(streamed, [stat(*pairs) for stat in share.reads.values()])


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("failing", [(), (2, 4)], ids=["returns", "raises"])
def test_first_failure_in_task_order_and_no_task_left_running(workers, count, failing):
    # task 2 is slow, so with helpers task 4 (after task 1 on the same
    # worker) fails first in time; the error of task 2, the first in task
    # order, is the one raised, and no task is running once the tasks
    # return or raise.  On one worker no task after the failing one starts,
    # as in a loop.
    workers(count)
    started, running, lock = [], [0], threading.Lock()

    def task(i):
        def run():
            with lock:
                started.append(i)
                running[0] += 1
            try:
                time.sleep(0.05 if i == 2 else 0.001)
                if i in failing:
                    raise ValueError(f"task {i}")
                return i
            finally:
                with lock:
                    running[0] -= 1
        return run

    if failing:
        with pytest.raises(ValueError, match="^task 2$"):
            concentration._in_order([task(i) for i in range(8)])
    else:
        assert concentration._in_order([task(i) for i in range(8)]) == list(range(8))
    assert running[0] == 0
    if count == 1:
        assert started == list(range(3 if failing else 8))


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_no_task_runs_after_the_pass(helpers, fails):
    # a statistic that takes a while and counts itself in and out; the
    # ragged last task (5 rows of 3B + 5) fails when asked to
    running, lock = [0], threading.Lock()

    def statistic(paths):
        with lock:
            running[0] += 1
        try:
            time.sleep(0.01)
            if fails and len(paths) == 5:
                raise ValueError("last task")
            return paths[:, -1]
        finally:
            with lock:
                running[0] -= 1

    share = EnsembleShare(TimeGrid(1.0, 8), HP, (SEED,), 3 * B + 5, {"end": statistic},
                          lambda ends: ends)
    if fails:
        with pytest.raises(ValueError, match="last task"):
            next(shared_pass([share]))
    else:
        assert len(next(shared_pass([share]))) == 3 * B + 5
    assert running[0] == 0


@pytest.fixture
def zero_rows_but_one(monkeypatch):
    # every path is 0 except path B + 3, in the second task
    real = fbm._circulant_rows

    def rows(grid, h, seed, paths, component=0):
        out = np.zeros((len(paths), grid.n_steps + 1))
        if B + 3 in paths:
            out[paths.index(B + 3)] = real(grid, h, seed, [B + 3], component)[0]
        return out

    monkeypatch.setattr(fbm, "_circulant_rows", rows)


def test_overflow_in_a_later_task_is_the_serial_blow_up(workers, zero_rows_but_one):
    # at drift -1e300 only path B + 3 overflows; sde._euler's own errstate
    # turns the overflow into its BlowUpError on whichever thread solves it
    # (a RuntimeWarning there is an error under this suite's filters)
    def blow_up(count):
        workers(count)
        with pytest.raises(BlowUpError) as exc:
            verify_hoeffding_large_time(0.75, 1.0, 2 * B, 32, SEED, B=-1e300)
        return exc.value.step

    serial = blow_up(1)
    assert serial > 1
    assert blow_up(3) == serial


NAN_INI = """
[experiment]
seed = 7
[grid]
t_max = 0.5
n_steps = 32
[verify]
n_paths = 600
horizons = 1,2
"""


@pytest.mark.parametrize("name, seed_role, message", [
    ("fernique", None, "non-finite number in the report"),
    ("hoeffding-large", None, "non-finite state at Euler step 1"),
    ("stability", fbm.Role.partner, "non-finite state at Euler step 1"),
], ids=["fernique", "hoeffding-large", "stability-partner"])
def test_nan_row_in_a_later_task_exits_as_a_serial_pass(tmp_path, monkeypatch, capsys, workers,
                                                        name, seed_role, message):
    # a NaN path B + 3 of the primary ensemble (or of the partner) fails
    # each verifier that reads it with the exit code and message of a pass
    # on the calling thread alone
    bad = SEED if seed_role is None else fbm.role_seed(SEED, seed_role)
    real = fbm._circulant_rows

    def rows(grid, h, seed, paths, component=0):
        out = real(grid, h, seed, paths, component)
        if seed == bad and B + 3 in paths:
            out[paths.index(B + 3)] = np.nan
        return out

    monkeypatch.setattr(fbm, "_circulant_rows", rows)
    ini = tmp_path / "nan.ini"
    ini.write_text(NAN_INI)
    errors = []
    for count in (1, 3):
        workers(count)
        out = tmp_path / f"w{count}"
        assert main(["verify", "--config", str(ini), "--out", str(out),
                     "--verifier", name]) == 3
        assert not (out / f"verify_{name}.json").exists()
        errors.append(capsys.readouterr().err.replace(str(out), "OUT"))
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical error: ") and message in errors[0]


def test_one_task_segment_starts_no_thread(tmp_path, monkeypatch, helpers):
    # calibrate at 200 pairs: the stability share is one task, which the
    # calling thread runs alone
    monkeypatch.setattr(concentration, "_helper_pool",
                        lambda: pytest.fail("a helper was asked for"))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("a thread was started"))
    ini = tmp_path / "cal.ini"
    ini.write_text("[verify]\nn_paths = 200\n")
    assert main(["calibrate", "--config", str(ini), "--out", str(tmp_path / "cal")]) == 0


def test_every_task_runs_under_numpy_default_error_state(tmp_path, monkeypatch, helpers):
    # numpy's errstate is context-local and does not reach a helper thread,
    # so a pass wrapped in one would run its tasks under two error states;
    # no caller wraps a pass (a statistic that needs one sets its own, as
    # sde._euler does), so every draw of verify and calibrate, on whichever
    # thread, sees numpy's default
    states = []
    real = fbm._circulant_rows

    def rows(*args, **kwargs):
        states.append(np.geterr())
        return real(*args, **kwargs)

    monkeypatch.setattr(fbm, "_circulant_rows", rows)
    verify, calibrate = tmp_path / "v.ini", tmp_path / "c.ini"
    verify.write_text(NAN_INI)
    calibrate.write_text("[verify]\nn_paths = 600\n")
    assert main(["verify", "--config", str(verify), "--out", str(tmp_path / "v")]) in (0, 1)
    assert main(["calibrate", "--config", str(calibrate), "--out", str(tmp_path / "c")]) == 0
    assert len(states) > 10
    assert all(state == NUMPY_DEFAULT for state in states)


def test_tasks_under_contention_each_run_once(workers):
    # eight workers on fewer CPUs, switching threads every microsecond, write
    # their results and errors into shared containers: a stride that ran a
    # task twice or skipped one shows within a few seconds at most
    workers(8)
    runs = [0] * 2000

    def task(i):
        def run():
            runs[i] += 1
            return i
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert concentration._in_order([task(i) for i in range(2000)]) == list(range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * 2000
