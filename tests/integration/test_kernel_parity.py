"""End-to-end kernel parity: the coverage-scan knob is purely
operational, and the sampling kernel must draw the reference stream
wherever it runs — serially, in pooled fork and spawn workers,
fault-injected, and checkpoint-resumed.  Pooled runs are compared
against the same per-job streams sampled serially in-process with the
sorted-merge reference kernels (``tests/visited_oracle.py``)."""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import compare_engines
from repro.imm import IMMOptions, run_imm
from repro.resilience import ResilienceOptions
from repro.resilience.faults import ENV_VAR as FAULTS_ENV
from repro.rrr import RRRCollection, sample_rrr_parallel
from repro.rrr.parallel import shutdown_pools
from repro.rrr.store import clear_stores
from repro.utils.rng import spawn_seed_sequences
from tests.visited_oracle import sample_with_oracle


@pytest.fixture(autouse=True)
def _fresh_registries(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_stores()
    yield
    clear_stores()
    shutdown_pools()


def _assert_same_result(ref, out):
    np.testing.assert_array_equal(out.seeds, ref.seeds)
    assert out.theta == ref.theta
    assert out.selection.covered_sets == ref.selection.covered_sets
    np.testing.assert_array_equal(out.collection.flat, ref.collection.flat)
    np.testing.assert_array_equal(out.collection.offsets, ref.collection.offsets)
    np.testing.assert_array_equal(
        out.selection.stats.sets_scanned, ref.selection.stats.sets_scanned
    )
    np.testing.assert_array_equal(
        out.selection.stats.elements_decremented,
        ref.selection.stats.elements_decremented,
    )


def _assert_same_collection(coll, ref):
    np.testing.assert_array_equal(coll.flat, ref.flat)
    np.testing.assert_array_equal(coll.offsets, ref.offsets)
    np.testing.assert_array_equal(coll.sources, ref.sources)


def _serial_reference(graph, model, num_sets, seed, n_jobs):
    """The pool's stream computed in-process: one reference run per job
    seed sequence, with the pool's split (remainder on the last job)."""
    share = num_sets // n_jobs
    counts = [share] * n_jobs
    counts[-1] += num_sets - share * n_jobs
    parts = [
        sample_with_oracle(graph, count, model,
                           rng=np.random.Generator(np.random.PCG64(seq)))[0]
        for count, seq in zip(counts, spawn_seed_sequences(seed, n_jobs))
    ]
    return RRRCollection.concat(parts)


def _options(model, **kw):
    return IMMOptions(model=model, bounds=None, **kw)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_run_imm_parity_across_modes(model, small_ic_graph, small_lt_graph):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    ref = run_imm(graph, 6, 0.3, rng=3,
                  options=_options(model, coverage_scan="csr"))
    for scan in ("bitset", "auto"):
        out = run_imm(graph, 6, 0.3, rng=3,
                      options=_options(model, coverage_scan=scan))
        _assert_same_result(ref, out)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_pooled_sampling_parity_fork(model, small_ic_graph, small_lt_graph):
    """A 2-worker fork pool reproduces the serially sampled job streams."""
    graph = small_ic_graph if model == "IC" else small_lt_graph
    ref = _serial_reference(graph, model, 500, 11, 2)
    coll, _ = sample_rrr_parallel(graph, 500, model=model, rng=11, n_jobs=2)
    _assert_same_collection(coll, ref)
    shutdown_pools()


def test_pooled_sampling_parity_spawn(small_ic_graph):
    """One spawn-context case: fresh interpreters, same stream."""
    from repro.rrr.parallel import SamplerPool

    ref = _serial_reference(small_ic_graph, "IC", 300, 13, 2)
    with SamplerPool(small_ic_graph, 2, mp_context="spawn") as pool:
        coll, _ = pool.sample("IC", 300, rng=13)
    _assert_same_collection(coll, ref)


def test_crash_recovery_parity(small_ic_graph, monkeypatch):
    """A worker crash mid-stream retries onto the same bit-identical
    chunks the serial reference samples."""
    ref = _serial_reference(small_ic_graph, "IC", 400, 7, 2)
    monkeypatch.setenv(FAULTS_ENV, "crash@1")
    coll, trace = sample_rrr_parallel(
        small_ic_graph, 400, rng=7, n_jobs=2,
        resilience=ResilienceOptions(backoff_base=0.0),
    )
    _assert_same_collection(coll, ref)
    assert trace.resilience.crashes >= 1


def test_warm_start_checkpoint_resume_parity(tmp_path):
    """A checkpointed sweep written under one coverage scan resumes under
    the other with the identical table row: chunk bytes on disk are
    scan-independent."""
    def config(scan, checkpoint_dir):
        return ExperimentConfig(
            scale="tiny", datasets=("WV",), seed=7,
            theta_scale=0.2, sweep_theta_scale=0.2,
            warm_start=True, checkpoint_dir=str(checkpoint_dir),
            coverage_scan=scan,
        )

    cold = compare_engines("WV", 8, 0.3, "IC", config("csr", tmp_path),
                           include_curipples=False)
    clear_stores()  # the "kill": in-memory state gone, checkpoints stay
    resumed = compare_engines("WV", 8, 0.3, "IC", config("bitset", tmp_path),
                              include_curipples=False)
    assert np.array_equal(resumed.eim.seeds, cold.eim.seeds)
    assert np.array_equal(resumed.gim.seeds, cold.gim.seeds)
    assert resumed.eim.theta == cold.eim.theta
    assert resumed.table_cell_vs_gim() == cold.table_cell_vs_gim()

    # and a from-scratch sweep agrees with the resumed one
    clear_stores()
    fresh = compare_engines("WV", 8, 0.3, "IC",
                            config("bitset", tmp_path / "fresh"),
                            include_curipples=False)
    assert np.array_equal(fresh.eim.seeds, cold.eim.seeds)
    assert fresh.eim.theta == cold.eim.theta
