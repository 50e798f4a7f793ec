import json
import math
import os
import queue
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qir
from qir import backend, explore, linalg
from qir.channels import dephase, monitor
from qir.entropies import irreality, shannon, vn_entropy
from qir.errors import ConfigError, InvariantViolation, NoConvergence, OutOfRange
from qir.explore import (
    ArgminDescriptor,
    CampaignConfig,
    SweepTrace,
    minimize_slack,
    monitoring_sweep,
    run_campaign_records,
)
from qir._rng import spawn_rng
from qir.relations import RELATIONS, evaluate_relations
from qir.states import (
    ObservableBasis,
    _pure,
    computational_basis,
    fourier_basis,
    haar_random_pure,
    max_entangled,
    max_mixed,
    random_basis,
    random_mixed,
    state_from_token,
    werner,
)

from conftest import blocks, marginal_b

ALL_RELATIONS = ("eq5", "eq7", "eq8", "eq9", "eq10", "eq11", "eq16")


ACCEPTANCE_DIMS = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))


def per_block_entropy(x, rho):
    """S(rho dephased in x) with one ``herm_eig`` call per block."""
    spectra = [linalg.herm_eig(b).eigenvalues for b in blocks(x, rho)]
    return shannon(np.clip(np.concatenate(spectra), 0.0, None))


def marginal_entropy(rho):
    """S(rho_B) with one ``herm_eig`` call."""
    return shannon(np.clip(linalg.herm_eig(marginal_b(rho)).eigenvalues, 0.0, None))


def trial_inputs(cfg, index):
    """The state, bases and eps of one campaign trial, each from its public
    constructor and its own streams: the per-trial reference route of the chunks."""
    d_a, d_b = cfg.dims[index % len(cfg.dims)]
    kind, arg = explore._parse_ensemble(cfg.ensemble)
    if kind == "named":
        state = state_from_token(arg)
        x = computational_basis(d_a)
        y = fourier_basis(d_a)
    else:
        if kind == "haar-pure":
            state = haar_random_pure(d_a, d_b, (cfg.seed, index, explore._STATE))
        else:
            rank = int(arg) if arg else d_a * d_b
            state = random_mixed(d_a, d_b, rank, (cfg.seed, index, explore._STATE))
        x = random_basis(d_a, (cfg.seed, index, explore._BASIS_X))
        y = random_basis(d_a, (cfg.seed, index, explore._BASIS_Y))
    eps = None
    if any(RELATIONS[name].needs_eps for name in cfg.relations):
        eps = explore._trial_eps(cfg.seed, index)
    return state, x, y, eps


def run_fresh(code):
    """``python -c code`` in a new interpreter that imports this qir."""
    package_root = str(Path(qir.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def small_config(**overrides):
    base = dict(
        dims=((2, 2), (3, 2)),
        trials=40,
        seed=77,
        relations=ALL_RELATIONS,
        ensemble="haar-pure",
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestCampaignConfig:
    def test_rejects_unknown_relation(self):
        with pytest.raises(ConfigError):
            small_config(relations=("eq5", "bogus"))

    def test_rejects_a_relation_named_twice(self):
        # it was evaluated and reported twice, though the result holds it once
        with pytest.raises(ConfigError, match=r"^relation 'eq5' is named more than once$"):
            small_config(relations=("eq5", "eq5", "eq9"))

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(dims=())
        with pytest.raises(ConfigError):
            small_config(dims=((1, 1),))
        with pytest.raises(ConfigError):
            small_config(ensemble="bogus")
        with pytest.raises(ConfigError):
            small_config(tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_a_tolerance_that_passes_every_slack(self, tol):
        with pytest.raises(ConfigError, match=f"tol must be positive and finite, got {tol}"):
            small_config(tol=tol)

    def test_named_ensemble_pins_dims(self):
        cfg = small_config(ensemble="named:bell:2", dims=((2, 2),))
        assert cfg.dims == ((2, 2),)
        with pytest.raises(ConfigError):
            small_config(ensemble="named:bell:3", dims=((2, 2),))


class TestCampaign:
    def test_no_violations_and_histogram_accounting(self):
        result, _ = run_campaign_records(small_config())
        assert result.total_violations == 0
        for name in ALL_RELATIONS:
            summary = result.relations[name]
            hist = summary.histogram
            assert sum(hist.counts) + hist.underflow + hist.overflow == result.total_trials
            assert summary.min_slack >= -1e-9

    def test_deterministic_across_runs_and_workers(self):
        from qir.serialize import campaign_result_to_dict

        cfg = small_config(trials=24)
        r1 = campaign_result_to_dict(run_campaign_records(cfg, workers=1)[0])
        r2 = campaign_result_to_dict(run_campaign_records(cfg, workers=1)[0])
        r3 = campaign_result_to_dict(run_campaign_records(cfg, workers=4)[0])
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)

    def test_pool_is_capped_at_the_core_count(self, monkeypatch):
        # a forking pool starts every process it is sized for, so it is never
        # sized above the core count, and it gets one chunk per process; the
        # fake records the size and the chunks, and maps serially
        from qir.serialize import campaign_result_to_dict

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                items = list(items)
                sizes.append(len(items))
                return map(fn, items)

        cfg = small_config(trials=6)
        serial = run_campaign_records(cfg)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        for cores, workers, size in ((2, 2, 2), (2, 3, 2), (2, 100_000, 2), (8, 3, 3), (None, 3, 1)):
            monkeypatch.setattr(explore.os, "cpu_count", lambda: cores)
            sizes.clear()
            result, records = run_campaign_records(cfg, workers=workers)
            assert sizes == [size, size], (cores, workers)
            assert records == serial[1]
            assert campaign_result_to_dict(result) == campaign_result_to_dict(serial[0])

    def test_a_one_worker_campaign_loads_no_process_pool(self):
        # the pool is imported only for workers > 1, so import qir and a serial
        # campaign leave multiprocessing unloaded
        proc = run_fresh(
            "import sys, qir\n"
            "cfg = qir.CampaignConfig(dims=((2, 2), (3, 2)), trials=4, seed=77, relations=('eq5', 'eq16'))\n"
            "qir.run_campaign_records(cfg, workers=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_named_saturating_case(self):
        cfg = small_config(
            ensemble="named:bell:2", dims=((2, 2),), trials=1, relations=("eq11",)
        )
        result, _ = run_campaign_records(cfg)
        assert abs(result.relations["eq11"].min_slack) <= 1e-9
        assert result.relations["eq11"].violations == 0

    def test_induced_mixed_ensemble(self):
        cfg = small_config(ensemble="induced-mixed", trials=20)
        assert run_campaign_records(cfg)[0].total_violations == 0
        cfg = small_config(ensemble="induced-mixed:1", trials=10)
        assert run_campaign_records(cfg)[0].total_violations == 0

    def test_memoryless_campaign(self):
        # d_B = 1 reduces to the plain two-observable bound; pure inputs
        # have H(A|B) = 0 so the bound is exactly the overlap term
        cfg = small_config(dims=((2, 1), (3, 1)), trials=30, relations=("eq5", "eq11"))
        result, records = run_campaign_records(cfg)
        assert result.total_violations == 0
        for rec in records:
            assert rec.slacks["eq5"] >= -1e-9

    def test_argmin_descriptor_regenerates_the_trial(self):
        cfg = small_config(trials=30)
        result, records = run_campaign_records(cfg)
        summary = result.relations["eq11"]
        state, x, y, eps = trial_inputs(cfg, summary.argmin.trial)
        report = evaluate_relations(["eq11"], x, y, state, eps=eps, tol=cfg.tol)["eq11"]
        assert abs(report.slack - summary.min_slack) <= 1e-12

    def test_trial_dims_cycle(self):
        cfg = small_config(trials=10)
        _, records = run_campaign_records(cfg)
        assert [(r.d_a, r.d_b) for r in records[:4]] == [(2, 2), (3, 2), (2, 2), (3, 2)]

    def test_trial_errors_name_the_trial(self, monkeypatch):
        import qir.explore as explore

        bundles = explore._bundles

        def fails_at_3x2(groups):
            if any(x.shape[-1] == 3 for x, *_ in groups):
                raise InvariantViolation("H(X|B) -1.000e-06 below -1e-9")
            return bundles(groups)

        monkeypatch.setattr(explore, "_bundles", fails_at_3x2)
        cfg = small_config(trials=3)
        eps = trial_inputs(cfg, 1)[3]
        expected = f"trial 1 at (d_A, d_B) = (3, 2), eps = {eps!r}: H(X|B) -1.000e-06 below -1e-9"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(expected)}$"):
            run_campaign_records(cfg, workers=1)
        expected = "trial 1 at (d_A, d_B) = (3, 2): H(X|B) -1.000e-06 below -1e-9"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(expected)}$"):
            run_campaign_records(small_config(trials=3, relations=("eq5",)), workers=1)

    def test_a_trial_whose_draw_fails_is_named(self, monkeypatch):
        # the state is drawn before eps, so the message names no eps
        import qir.explore as explore
        from qir.errors import NoConvergence

        draw = explore._induced_densities

        def fails_at_3x2(z):
            if z.shape[1] == 6:
                raise NoConvergence("6x6 matrix: off-diagonal norm still above threshold after 3600 rotations")
            return draw(z)

        monkeypatch.setattr(explore, "_induced_densities", fails_at_3x2)
        expected = ("trial 1 at (d_A, d_B) = (3, 2): "
                    "6x6 matrix: off-diagonal norm still above threshold after 3600 rotations")
        for relations in (ALL_RELATIONS, ("eq5",)):
            cfg = small_config(trials=3, relations=relations, ensemble="induced-mixed")
            with pytest.raises(NoConvergence, match=f"^{re.escape(expected)}$"):
                run_campaign_records(cfg, workers=1)

    def test_the_first_of_two_failing_trials_is_named(self, monkeypatch):
        # in one chunk, trial 1's draw fails before trial 0's bundle; trial 0 is named
        import qir.explore as explore
        from qir.errors import NoConvergence

        draw, bundles = explore._induced_densities, explore._bundles

        def draw_fails_at_3x2(z):
            if z.shape[1] == 6:
                raise NoConvergence("6x6 matrix: off-diagonal norm still above threshold after 3600 rotations")
            return draw(z)

        def bundle_fails_at_4x2(groups):
            if any(x.shape[-1] == 4 for x, *_ in groups):
                raise InvariantViolation("H(X|B) -1.000e-06 below -1e-9")
            return bundles(groups)

        monkeypatch.setattr(explore, "_induced_densities", draw_fails_at_3x2)
        monkeypatch.setattr(explore, "_bundles", bundle_fails_at_4x2)
        cfg = small_config(dims=((4, 2), (3, 2)), trials=4, ensemble="induced-mixed")
        assert explore._campaign_chunks(cfg, 1) == [range(4)]
        eps = trial_inputs(cfg, 0)[3]
        expected = f"trial 0 at (d_A, d_B) = (4, 2), eps = {eps!r}: H(X|B) -1.000e-06 below -1e-9"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(expected)}$"):
            run_campaign_records(cfg, workers=1)

    def test_a_stacked_state_check_that_does_not_converge_names_its_trial(self, monkeypatch):
        # the chunk's 6 x 6 states fail as "slice 0 (6x6)" of their stack; alone,
        # trial 1 fails as its constructor does, and it is named with its dims
        from qir.errors import NoConvergence

        cfg = small_config(trials=4, ensemble="induced-mixed")
        start = linalg.kernel_counts()
        random_mixed(3, 2, 6, (cfg.seed, 1, explore._STATE))
        rotations = linalg.kernel_counts(start)[6][2]
        kernel = backend.jacobi_eigh_stack

        def fails_at_6x6(b, max_rotations):
            spent, converged = kernel(b, max_rotations)
            return spent, converged & (b.shape[2] != 6)

        monkeypatch.setattr(backend, "jacobi_eigh_stack", fails_at_6x6)
        with pytest.raises(NoConvergence, match=r"^slice 0 \(6x6\): "):
            explore._chunk_inputs(cfg, {(2, 2): [0, 2], (3, 2): [1, 3]})
        expected = (f"trial 1 at (d_A, d_B) = (3, 2): "
                    f"6x6 matrix: off-diagonal norm still above threshold after {rotations} rotations")
        with pytest.raises(NoConvergence, match=f"^{re.escape(expected)}$"):
            run_campaign_records(cfg, workers=1)


class TestCampaignChunks:
    """The chunk route of ``run_campaign_records``, bit for bit the per-trial route."""

    ENSEMBLES = ("haar-pure", "induced-mixed", "induced-mixed:1", "named:bell:2")

    @staticmethod
    def config(ensemble, relations, trials=26, seed=83):
        dims = ((2, 2),) if ensemble.startswith("named:") else ACCEPTANCE_DIMS
        return CampaignConfig(dims=dims, trials=trials, seed=seed, relations=relations, ensemble=ensemble)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("relations", [ALL_RELATIONS, ("eq5", "eq7", "eq10")])
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_records_are_bitwise_evaluate_relations_on_each_trial(self, monkeypatch, ensemble, relations, workers):
        # room for 10 trials of the widest pair: 26 trials run as 9, 9 and 8
        cfg = self.config(ensemble, relations)
        widest = max(d_a * d_b for d_a, d_b in cfg.dims)
        monkeypatch.setattr(explore, "CHUNK_BYTES", 10 * 16 * widest * widest)
        assert [len(c) for c in explore._campaign_chunks(cfg, workers)] == [9, 9, 8]
        _, records = run_campaign_records(cfg, workers=workers)
        assert [r.trial for r in records] == list(range(cfg.trials))
        for i, record in enumerate(records):
            state, x, y, eps = trial_inputs(cfg, i)
            reports = evaluate_relations(cfg.relations, x, y, state, eps=eps, tol=cfg.tol)
            assert (record.d_a, record.d_b, record.eps) == (state.d_a, state.d_b, eps), i
            assert {name: slack.hex() for name, slack in record.slacks.items()} == {
                name: report.slack.hex() for name, report in reports.items()}, i
            assert list(record.slacks) == list(cfg.relations)

    def test_chunks_are_even_bounded_and_one_per_worker_at_least(self, monkeypatch):
        cfg = self.config("haar-pure", ("eq5",), trials=2520)
        assert [len(c) for c in explore._campaign_chunks(cfg, 1)] == [840] * 3  # 1165 trials of 15 x 15 fit
        monkeypatch.setattr(explore, "CHUNK_BYTES", 1 << 30)
        assert explore._campaign_chunks(cfg, 1) == [range(2520)]
        assert explore._campaign_chunks(cfg, 2) == [range(1260), range(1260, 2520)]
        assert explore._campaign_chunks(self.config("haar-pure", ("eq5",), trials=3), 8) == [
            range(0, 1), range(1, 2), range(2, 3)]
        monkeypatch.setattr(explore, "CHUNK_BYTES", 1)
        assert [len(c) for c in explore._campaign_chunks(cfg, 1)] == [1] * 2520

    @pytest.mark.parametrize("ensemble", ["haar-pure", "induced-mixed", "induced-mixed:1", "induced-mixed:2"])
    def test_stacked_draws_are_bitwise_the_constructors(self, ensemble):
        cfg = self.config(ensemble, ALL_RELATIONS, trials=36)
        groups = {}
        for i in range(cfg.trials):
            groups.setdefault(cfg.dims[i % len(cfg.dims)], []).append(i)
        inputs = explore._chunk_inputs(cfg, groups)
        assert list(inputs) == list(groups)
        for (d_a, d_b), (rhos, spectra, x, y) in inputs.items():
            for j, i in enumerate(groups[d_a, d_b]):
                if ensemble == "haar-pure":
                    state = haar_random_pure(d_a, d_b, (cfg.seed, i, 0))
                else:
                    rank = int(ensemble.partition(":")[2] or d_a * d_b)
                    state = random_mixed(d_a, d_b, rank, (cfg.seed, i, 0))
                assert rhos[j].tobytes() == state.rho.tobytes(), (d_a, d_b, i)
                assert spectra[j].tobytes() == state.spectrum.tobytes(), (d_a, d_b, i)
                assert x[j].tobytes() == random_basis(d_a, (cfg.seed, i, 1)).vectors.tobytes(), (d_a, d_b, i)
                assert y[j].tobytes() == random_basis(d_a, (cfg.seed, i, 2)).vectors.tobytes(), (d_a, d_b, i)

    @pytest.mark.parametrize("relations", [ALL_RELATIONS, ("eq5", "eq7", "eq8", "eq9", "eq10", "eq11")])
    @pytest.mark.parametrize("ensemble", ["haar-pure", "induced-mixed"])
    def test_kernel_calls_by_n_and_by_d_b(self, monkeypatch, ensemble, relations):
        # per (d_A, d_B) group one call of its states and, with eq16, one of its
        # monitored states; per d_B one call of every group's B marginals and X and
        # Y blocks, and with eq16 of the monitored states' X blocks alone; each
        # slice takes the rotations it takes alone, and no buffer carries v rows
        handed = []
        kernel = backend.jacobi_eigh_stack

        def recording(b, max_rotations):
            given = b.copy()
            spent, converged = kernel(b, max_rotations)
            handed.append((given, spent.copy(), max_rotations))
            return spent, converged

        cfg = self.config(ensemble, relations, trials=30)
        groups = {}
        for i in range(cfg.trials):
            groups.setdefault(cfg.dims[i % len(cfg.dims)], []).append(i)
        monitored = "eq16" in relations
        expected: dict[int, list[int]] = {}
        for (d_a, d_b), idx in groups.items():
            k = len(idx)
            for _ in range(2 if monitored else 1):
                calls, slices = expected.get(d_a * d_b, (0, 0))
                expected[d_a * d_b] = (calls + 1, slices + k)
        for d_b in (1, 2, 3):
            slices = sum(len(idx) * (1 + 2 * d_a + (d_a if monitored else 0))
                         for (d_a, b), idx in groups.items() if b == d_b)
            calls, before = expected.get(d_b, (0, 0))
            expected[d_b] = (calls + 1, before + slices)
        monkeypatch.setattr(backend, "jacobi_eigh_stack", recording)
        start = linalg.kernel_counts()
        explore._chunk_records(cfg, range(cfg.trials))
        counts = linalg.kernel_counts(start)
        monkeypatch.undo()
        assert {n: c[:2] for n, c in counts.items()} == expected
        assert sum(len(b) for b, _, _ in handed) == sum(slices for _, slices in expected.values())
        for b, spent, max_rotations in handed:
            assert b.shape[1] == b.shape[2], b.shape
            for j in range(len(b)):
                alone, _ = kernel(b[j : j + 1].copy(), max_rotations)
                assert alone[0] == spent[j], (b.shape, j)


class TestSweep:
    def test_bell_mub_sweep_constant(self):
        trace = monitoring_sweep(
            computational_basis(2), fourier_basis(2), max_entangled(2), np.linspace(0, 1, 11)
        )
        assert np.abs(trace.irreality_x - math.log(2)).max() <= 1e-9
        assert np.abs(trace.uncertainty_y).max() <= 1e-9
        assert np.abs(trace.bound_slack()).max() <= 1e-9

    def test_max_mixed_sweep_zero(self):
        trace = monitoring_sweep(
            computational_basis(2), fourier_basis(2), max_mixed(2, 2), np.linspace(0, 1, 5)
        )
        assert np.abs(trace.irreality_x).max() <= 1e-9

    def test_werner_self_monitoring_decays_to_zero(self):
        x = computational_basis(2)
        state = werner(0.5)
        trace = monitoring_sweep(x, x, state, np.linspace(0, 1, 9))
        assert abs(trace.irreality_x[0] - irreality(x, state)) <= 1e-12
        assert abs(trace.irreality_x[-1]) <= 1e-9
        assert np.all(np.diff(trace.irreality_x) <= 1e-9)

    def test_endpoint_equals_dephased_target(self):
        state = haar_random_pure(2, 2, 5)
        x, y = random_basis(2, 6), random_basis(2, 7)
        trace = monitoring_sweep(x, y, state, [0.0, 0.5, 1.0])
        assert abs(trace.irreality_x[-1] - irreality(x, dephase(y, state))) <= 1e-12

    def test_sweep_is_bitwise_the_per_point_route(self):
        # monitor() builds each state through the constructor and herm_eig;
        # every entropy here takes one herm_eig call per block
        for k, (d_a, d_b) in enumerate(ACCEPTANCE_DIMS):
            for state in (random_mixed(d_a, d_b, d_a * d_b, (60, k)), haar_random_pure(d_a, d_b, (61, k))):
                x, y = random_basis(d_a, (62, k)), random_basis(d_a, (63, k))
                for grid in (np.linspace(0.0, 1.0, 6), [0.0, 0.3], [1.0]):
                    trace = monitoring_sweep(x, y, state, grid)
                    monitored = [monitor(y, eps, state) for eps in grid]
                    irr = [per_block_entropy(x, m) - vn_entropy(m) for m in monitored]
                    unc = [per_block_entropy(y, m) - marginal_entropy(m) for m in monitored]
                    assert trace.irreality_x.tobytes() == np.array(irr).tobytes(), (d_a, d_b, grid)
                    assert trace.uncertainty_y.tobytes() == np.array(unc).tobytes(), (d_a, d_b, grid)
                    assert [irreality(x, m) for m in monitored] == irr

    def test_sweep_makes_no_full_size_call_per_point(self):
        state = random_mixed(3, 2, 6, 64)
        x, y = random_basis(3, 65), random_basis(3, 66)
        start = linalg.kernel_counts()
        monitoring_sweep(x, y, state, np.linspace(0.0, 1.0, 21))
        counts = linalg.kernel_counts(start)
        # one call of the 21 monitored states, eps = 0 among them, then one of rho_B and 3 + 3 blocks per point
        assert {n: c[:2] for n, c in counts.items()} == {6: (1, 21), 2: (1, 21 * 7)}

    def test_long_grids_run_in_chunks_with_the_bits_of_short_ones(self, monkeypatch):
        stacks = []
        stacked = backend.jacobi_eigh_stack

        def counting_stack(b, max_rotations):
            stacks.append(b.shape)
            return stacked(b, max_rotations)

        state = random_mixed(3, 2, 6, 73)
        x, y = random_basis(3, 74), random_basis(3, 75)
        grid = np.linspace(0.0, 1.0, 2 * explore.STACK_CHUNK + 5)
        monkeypatch.setattr(backend, "jacobi_eigh_stack", counting_stack)
        trace = monitoring_sweep(x, y, state, grid)
        monkeypatch.undo()
        # eps = 0 is diagonalized with the other rows; per point rho_B and 3 + 3 blocks
        assert stacks == [(256, 6, 6), (256 * 7, 2, 2), (256, 6, 6), (256 * 7, 2, 2), (5, 6, 6), (5 * 7, 2, 2)]
        for i in range(0, len(grid), 51):
            alone = monitoring_sweep(x, y, state, grid[i : i + 1])
            assert trace.irreality_x[i].tobytes() == alone.irreality_x.tobytes(), i
            assert trace.uncertainty_y[i].tobytes() == alone.uncertainty_y.tobytes(), i

    def test_grid_validation(self):
        state = werner(0.5)
        x = computational_basis(2)
        with pytest.raises(OutOfRange):
            monitoring_sweep(x, x, state, [0.0, 1.5])
        with pytest.raises(OutOfRange):
            monitoring_sweep(x, x, state, [0.5, 0.2])
        with pytest.raises(OutOfRange):
            monitoring_sweep(x, x, state, [])

    def test_rising_sweep_is_returned(self):
        # monitoring a skew observable may raise irr(X); eq16 still holds,
        # so the sweep is returned with the rising column
        from qir.states import BipartiteState, ObservableBasis

        state = BipartiteState(2, 1, np.diag([1.0, 0.0]))
        x = computational_basis(2)
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        v = np.array([[a, -b], [b, a]])
        y = ObservableBasis(2, v)
        trace = monitoring_sweep(x, y, state, [0.0, 0.5, 1.0])

        def entropy(weights):
            return -sum(p * math.log(p) for p in weights if p > 1e-15)

        def irr_x(eps):
            # independent reference: dephasing |0><0| in Y keeps |<y_j|0>|^2 on |y_j><y_j|
            dephased_y = (v * v[0] ** 2) @ v.T
            mixed = (1 - eps) * np.diag([1.0, 0.0]) + eps * dephased_y
            return entropy(np.diag(mixed)) - entropy(np.linalg.eigvalsh(mixed))

        expected = [irr_x(eps) for eps in (0.0, 0.5, 1.0)]
        assert np.abs(trace.irreality_x - expected).max() <= 1e-12
        assert np.abs(trace.irreality_x - [0.0, 0.041, 0.146]).max() <= 1e-3
        assert np.all(np.diff(trace.irreality_x) > 0.04)
        assert trace.bound_slack().min() >= -1e-9

    def test_sweep_errors_name_dims_and_eps(self, monkeypatch):
        import qir.explore as explore

        state = random_mixed(3, 2, 6, 67)
        x, y = random_basis(3, 68), random_basis(3, 69)
        grid = np.linspace(0.0, 1.0, 5)
        monkeypatch.setattr(explore, "mu_bound", lambda x, y: 10.0)
        with pytest.raises(
            InvariantViolation, match=r"sweep at \(d_A, d_B\) = \(3, 2\): eq16 slack -\d\.\d{3}e\+00 below -1e-9 at eps = [01]\.\d+$"
        ):
            monitoring_sweep(x, y, state, grid)
        monkeypatch.undo()

        entropies = explore._configuration_entropies

        def drifting(passes):
            h = entropies(passes)
            h[0][-1, 3] += 1e-6  # S(rho dephased in Y) at eps = 1
            return h

        monkeypatch.setattr(explore, "_configuration_entropies", drifting)
        with pytest.raises(
            InvariantViolation,
            match=r"sweep at \(d_A, d_B\) = \(3, 2\): monitored-observable uncertainty drifted "
            r"by 1\.000e-06 between eps = 0\.\d+ and eps = 1\.0$",
        ):
            monitoring_sweep(x, y, state, grid)

    def test_every_sweep_error_names_its_dims(self, monkeypatch):
        # a kernel failure or a bad strength inside the grid's evaluation keeps its
        # type and gains the dims, as the trace's own checks do
        state = random_mixed(3, 2, 6, 67)
        x, y = random_basis(3, 68), random_basis(3, 69)
        with pytest.raises(
            OutOfRange, match=r"^sweep at \(d_A, d_B\) = \(3, 2\): monitoring strength must lie in \[0, 1\], got 1\.5$"
        ):
            monitoring_sweep(x, y, state, [0.0, 1.5])
        kernel = backend.jacobi_eigh_stack

        def fails_at_6x6(b, max_rotations):
            spent, converged = kernel(b, max_rotations)
            return spent, converged & (b.shape[2] != 6)

        monkeypatch.setattr(backend, "jacobi_eigh_stack", fails_at_6x6)
        with pytest.raises(
            NoConvergence,
            match=r"^sweep at \(d_A, d_B\) = \(3, 2\): slice 0 \(6x6\): off-diagonal norm still above threshold "
            r"after \d+ rotations$",
        ):
            monitoring_sweep(x, y, state, np.linspace(0.0, 1.0, 5))

    def test_trace_invariants_enforced(self):
        with pytest.raises(InvariantViolation, match=r"eq16 slack -1\.000e-01 below -1e-9 at eps = 1\.0"):
            SweepTrace(
                eps_grid=np.array([0.0, 1.0]),
                irreality_x=np.array([0.5, 0.1]),
                uncertainty_y=np.array([0.3, 0.3]),
                bound_q=0.5,
            )
        with pytest.raises(InvariantViolation, match=r"drifted by 1\.000e-01 between eps = 0\.0 and eps = 1\.0"):
            SweepTrace(
                eps_grid=np.array([0.0, 1.0]),
                irreality_x=np.array([0.5, 0.1]),
                uncertainty_y=np.array([0.3, 0.4]),
                bound_q=0.0,
            )
        with pytest.raises(InvariantViolation):
            SweepTrace(
                eps_grid=np.array([0.0, 1.0]),
                irreality_x=np.array([0.5]),
                uncertainty_y=np.array([0.3, 0.3]),
                bound_q=0.0,
            )
        rising = SweepTrace(
            eps_grid=np.array([0.0, 1.0]),
            irreality_x=np.array([0.1, 0.5]),
            uncertainty_y=np.array([0.3, 0.3]),
            bound_q=0.4,
        )
        assert rising.bound_slack().min() == pytest.approx(0.0)


class TestMinimize:
    def test_memoryless_mu_saturation(self):
        result = minimize_slack("eq5", 2, 1, restarts=10, seed=3, target=1e-7)
        assert result.best_slack <= 1e-6
        report = evaluate_relations(
            [result.relation], result.x, result.y, result.state, eps=result.eps
        )[result.relation]
        assert abs(report.slack - result.best_slack) <= 1e-9

    @pytest.mark.parametrize("target", [None, 0.5])
    @pytest.mark.parametrize("relation, d_a, d_b", [("eq11", 2, 2), ("eq16", 3, 2)])
    def test_the_best_slack_is_that_of_the_result(self, relation, d_a, d_b, target):
        # the search scores its best point once; evaluate_relations gives the result's
        # state, bases and eps the same bits
        result = minimize_slack(relation, d_a, d_b, restarts=3, seed=12, target=target, max_evals=150)
        report = evaluate_relations((relation,), result.x, result.y, result.state, eps=result.eps)[relation]
        assert result.best_slack.hex() == report.slack.hex()

    def test_monitored_relation_carries_eps(self):
        result = minimize_slack("eq16", 2, 1, restarts=5, seed=1, target=1e-6, max_evals=2000)
        assert result.eps is not None and 0.0 <= result.eps <= 1.0
        assert result.best_slack <= 1e-6

    def test_rejects_identities_and_unknown_names(self):
        with pytest.raises(ConfigError):
            minimize_slack("eq7", 2, 2, restarts=1, seed=0)
        with pytest.raises(ConfigError):
            minimize_slack("nope", 2, 2, restarts=1, seed=0)
        with pytest.raises(ConfigError):
            minimize_slack("eq5", 2, 2, restarts=0, seed=0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"max_evals": 0}, "max_evals must be >= 1, got 0"),
            ({"max_evals": -5}, "max_evals must be >= 1, got -5"),
            # a negative tol raised a false TheoremViolation, and nan and inf silenced that check
            *(({"tol": tol}, f"^tol must be positive and finite, got {tol}$")
              for tol in (-1.0, 0.0, math.nan, math.inf)),
            ({"target": math.nan}, "^target must be a number, got nan"),
        ],
    )
    def test_rejects_bad_inputs_up_front(self, bad, message, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the search ran before its inputs were checked")
            yield

        monkeypatch.setattr(explore, "_nelder_mead", never)
        with pytest.raises(ConfigError, match=message):
            minimize_slack("eq11", 2, 2, **{"restarts": 1, "seed": 0, **bad})

    @pytest.mark.parametrize("target", [None, 1.0])
    @pytest.mark.parametrize("error, message", [
        (InvariantViolation, "H(X|B) -1.000e-06 below -1e-9"),
        (NoConvergence, "slice 37 (4x4): off-diagonal norm still above threshold after 1600 rotations"),
    ], ids=["InvariantViolation", "NoConvergence"])
    def test_search_errors_name_the_relation_and_dims(self, error, message, target, monkeypatch):
        # the error keeps its type and gains the relation and dims, side by side and one restart at a time
        def fails(groups):
            raise error(message)

        monkeypatch.setattr(explore, "_bundles", fails)
        expected = f"eq16 search at (d_A, d_B) = (3, 2): {message}"
        with pytest.raises(error, match=f"^{re.escape(expected)}$"):
            minimize_slack("eq16", 3, 2, restarts=2, seed=0, target=target, max_evals=50)

    def test_deterministic(self):
        a = minimize_slack("eq5", 2, 1, restarts=2, seed=11, max_evals=500)
        b = minimize_slack("eq5", 2, 1, restarts=2, seed=11, max_evals=500)
        assert a.best_slack == b.best_slack
        assert np.array_equal(a.state.rho, b.state.rho)

    def test_argmin_serialization_reproduces_slack(self):
        # no slack target here, just the round trip at honest dimensions
        from qir import serialize

        result = minimize_slack("eq9", 3, 3, restarts=1, seed=5, max_evals=400)
        point = serialize.argmin_from_dict(serialize.argmin_to_dict(result))
        replayed = evaluate_relations(
            [point["relation"]], point["x"], point["y"], point["state"], eps=point["eps"]
        )[point["relation"]]
        assert abs(replayed.slack - result.best_slack) <= 1e-9
        assert result.best_slack >= -1e-9

    def test_descriptor_dataclass(self):
        d = ArgminDescriptor(seed=1, trial=2, d_a=3, d_b=4)
        assert (d.seed, d.trial, d.d_a, d.d_b) == (1, 2, 3, 4)


def decode_point(theta, d_a, d_b, needs_eps):
    """One search point decoded alone, through the constructors: (state, x, y, eps), or None.

    The per-point reference for ``explore._decode``: the same parametrization,
    one ``np.linalg.norm`` and one ``np.linalg.qr`` per point.
    """
    n, m = d_a * d_b, d_a * d_a
    z = theta[:n] + 1j * theta[n : 2 * n]
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        return None
    state = _pure(d_a, d_b, z / norm)
    bases = []
    for start in (2 * n, 2 * n + 2 * m):
        block = theta[start : start + 2 * m]
        q, r = np.linalg.qr((block[:m] + 1j * block[m:]).reshape(d_a, d_a))
        diag = np.diag(r)
        if np.any(np.abs(diag) < 1e-12):
            return None
        bases.append(ObservableBasis(d_a, q * (diag / np.abs(diag))))
    eps = 0.5 * (1.0 + math.tanh(theta[-1])) if needs_eps else None
    return state, bases[0], bases[1], eps


def mixed_batch(d_a, d_b, needs_eps, seed, size=12):
    """Random search points with undecodable ones among them: rows 3, 7 and 9.

    Row 3 has a zero state vector; rows 7 and 9 a zero first column in the X
    and the Y block, so that R's first diagonal entry is 0.
    """
    n, m = d_a * d_b, d_a * d_a
    thetas = np.random.default_rng(seed).standard_normal((size, 2 * n + 4 * m + int(needs_eps)))
    thetas[3, : 2 * n] = 0.0
    thetas[7, 2 * n : 2 * n + 2 * m : d_a] = 0.0
    thetas[9, 2 * n + 2 * m : 2 * n + 4 * m : d_a] = 0.0
    return thetas


BATCH_CASES = [
    (relation, d_a, d_b)
    for relation in ("eq5", "eq9", "eq10", "eq11", "eq16")
    for d_a, d_b in ((2, 1), (2, 2), (3, 2))
]


class TestBatchedEvaluation:
    """A batch of search points is evaluated in one stacked pass, bit for bit the per-point route."""

    def test_stacked_qr_is_bitwise_the_per_matrix_call(self):
        rng = np.random.default_rng(70)
        for d in (2, 3, 4, 5):
            z = rng.standard_normal((16, 2, d, d)) + 1j * rng.standard_normal((16, 2, d, d))
            q, r = np.linalg.qr(z)
            for i in range(16):
                for j in range(2):
                    q1, r1 = np.linalg.qr(z[i, j])
                    assert q[i, j].tobytes() == q1.tobytes() and r[i, j].tobytes() == r1.tobytes(), (d, i, j)

    def test_vecdot_norm_is_bitwise_np_linalg_norm(self):
        rng = np.random.default_rng(71)
        for n in sorted({d_a * d_b for d_a, d_b in ACCEPTANCE_DIMS}):
            thetas = rng.standard_normal((16, 2 * n))
            z = thetas[:, :n] + 1j * thetas[:, n:]
            norms = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
            assert norms.tobytes() == np.array([np.linalg.norm(row) for row in z]).tobytes(), n

    @pytest.mark.parametrize("relation, d_a, d_b", BATCH_CASES)
    def test_each_point_gets_the_slack_of_evaluate_relations(self, relation, d_a, d_b):
        needs_eps = relation == "eq16"
        thetas = mixed_batch(d_a, d_b, needs_eps, seed=d_a * 10 + d_b)
        slacks, decodable = explore._point_slacks(relation, d_a, d_b, thetas, 1e-9)
        points = [decode_point(theta, d_a, d_b, needs_eps) for theta in thetas]
        expected = [
            1e3 if p is None else evaluate_relations((relation,), p[1], p[2], p[0], eps=p[3])[relation].slack
            for p in points
        ]
        assert slacks.tobytes() == np.array(expected).tobytes()
        assert decodable.tolist() == [p is not None for p in points]
        assert np.flatnonzero(~decodable).tolist() == [3, 7, 9]

    @pytest.mark.parametrize("relation, d_a, d_b", BATCH_CASES)
    def test_a_batch_keeps_the_count_and_the_best_point_of_single_rows(self, relation, d_a, d_b, monkeypatch):
        from qir import serialize

        thetas = mixed_batch(d_a, d_b, relation == "eq16", seed=d_a * 10 + d_b + 1)

        def replay(batched):
            def search(x0, xatol, fatol, max_evals):
                for batch in [thetas] if batched else np.split(thetas, len(thetas)):
                    yield batch

            return search

        found = []
        for batched in (True, False):
            monkeypatch.setattr(explore, "_nelder_mead", replay(batched))
            result = minimize_slack(relation, d_a, d_b, restarts=1, seed=0)
            found.append(json.dumps(serialize.argmin_to_dict(result)))
            assert result.evaluations == len(thetas)
        assert found[0] == found[1]
        slacks, decodable = explore._point_slacks(relation, d_a, d_b, thetas, 1e-9)
        best = int(np.argmin(np.where(decodable, slacks, np.inf)))
        state, x, y, eps = decode_point(thetas[best], d_a, d_b, relation == "eq16")
        assert result.best_slack == slacks[best]
        assert result.state.rho.tobytes() == state.rho.tobytes()
        assert result.x.vectors.tobytes() == x.vectors.tobytes() and result.eps == eps

    def test_a_search_with_no_decodable_point_is_refused(self, monkeypatch):
        thetas = mixed_batch(2, 2, False, seed=72)[[3, 7, 9]]

        def replay(*args, **kwargs):
            yield thetas

        monkeypatch.setattr(explore, "_nelder_mead", replay)
        with pytest.raises(ConfigError, match="search never produced a decodable point"):
            minimize_slack("eq11", 2, 2, restarts=2, seed=0)


def n_params(relation, d_a, d_b):
    return 2 * d_a * d_b + 4 * d_a * d_a + int(relation == "eq16")


def result_bytes(result):
    """Everything a search returns, as bytes or exact values."""
    return (
        repr(result.best_slack),
        result.state.rho.tobytes(),
        result.x.vectors.tobytes(),
        result.y.vectors.tobytes(),
        repr(result.eps),
        result.evaluations,
        result.restarts_used,
    )


def recorded_search(monkeypatch):
    """Record what a ``minimize_slack`` run asks for: every search's batches, and every ``_point_slacks`` pass.

    Returns two lists that the run fills: per search, in the order the
    searches start, a copy of each batch it yields; and a copy of the
    points of each ``_point_slacks`` call.
    """
    searches, passes = [], []
    search, point_slacks = explore._nelder_mead, explore._point_slacks

    def recording(*args, **kwargs):
        asked = []
        searches.append(asked)
        steps = search(*args, **kwargs)
        try:
            batch = next(steps)
            while True:
                asked.append(batch.copy())
                batch = steps.send((yield batch))
        except StopIteration:
            return

    def recorded_slacks(relation, d_a, d_b, thetas, tol):
        passes.append(thetas.copy())
        return point_slacks(relation, d_a, d_b, thetas, tol)

    monkeypatch.setattr(explore, "_nelder_mead", recording)
    monkeypatch.setattr(explore, "_point_slacks", recorded_slacks)
    return searches, passes


def ticks(searches):
    """Per tick, the pending batches of every unfinished search, in the order the searches start."""
    return [[asked[t] for asked in searches if t < len(asked)] for t in range(max(map(len, searches)))]


SIDE_BY_SIDE_CASES = [
    ("eq5", 2, 1),
    ("eq5", 3, 2),
    ("eq11", 2, 2),
    ("eq11", 3, 1),
    ("eq16", 2, 1),
    ("eq16", 3, 2),
]


class TestSideBySideRestarts:
    """Without a target, the restarts of a search step side by side and give the one-at-a-time result."""

    @pytest.mark.parametrize("relation, d_a, d_b", SIDE_BY_SIDE_CASES)
    def test_side_by_side_is_the_one_at_a_time_search(self, relation, d_a, d_b):
        # target=-inf is never reached, so that search runs every restart one at a time;
        # a budget of n // 2 cuts the initial simplex
        for restarts in (1, 2, 5):
            for max_evals in (n_params(relation, d_a, d_b) // 2, 60):
                kw = dict(restarts=restarts, seed=restarts + max_evals, max_evals=max_evals)
                side_by_side = minimize_slack(relation, d_a, d_b, target=None, **kw)
                one_at_a_time = minimize_slack(relation, d_a, d_b, target=-math.inf, **kw)
                assert result_bytes(side_by_side) == result_bytes(one_at_a_time), (restarts, max_evals)
                assert side_by_side.restarts_used == restarts
                assert side_by_side.evaluations == restarts * max_evals

    def test_restarts_that_end_at_different_ticks(self, monkeypatch):
        # restart 1 of this search shrinks its simplex and so ends 20 ticks early
        kw = dict(restarts=3, seed=7, max_evals=400)
        searches, passes = recorded_search(monkeypatch)
        side_by_side = minimize_slack("eq16", 2, 1, **kw)
        assert [len(asked) for asked in searches] == [379, 359, 379]
        assert len(passes) == 379
        for points, pending in zip(passes, ticks(searches)):
            assert points.tobytes() == np.concatenate(pending).tobytes()
        monkeypatch.undo()
        assert result_bytes(side_by_side) == result_bytes(minimize_slack("eq16", 2, 1, target=-math.inf, **kw))

    def test_the_first_pass_is_every_initial_simplex_in_restart_order(self, monkeypatch):
        restarts, n = 5, n_params("eq11", 2, 2)
        searches, passes = recorded_search(monkeypatch)
        minimize_slack("eq11", 2, 2, restarts=restarts, seed=4, max_evals=60)
        assert len(searches) == restarts
        assert [len(points) for points in passes] == [restarts * (n + 1)] + [restarts] * (len(passes) - 1)
        for restart, asked in enumerate(searches):
            simplex = asked[0]
            assert simplex[0].tobytes() == spawn_rng(4, restart).standard_normal(n).tobytes()
            assert passes[0][restart * (n + 1) : (restart + 1) * (n + 1)].tobytes() == simplex.tobytes()
        for points, pending in zip(passes, ticks(searches)):
            assert points.tobytes() == np.concatenate(pending).tobytes()

    def test_a_target_search_runs_one_restart_at_a_time(self, monkeypatch):
        for target, used in ((-math.inf, 3), (1e9, 1)):
            searches, passes = recorded_search(monkeypatch)
            result = minimize_slack("eq11", 2, 2, restarts=3, seed=5, max_evals=40, target=target)
            assert result.restarts_used == used and len(searches) == used
            batches = [batch for asked in searches for batch in asked]
            assert [points.tobytes() for points in passes] == [batch.tobytes() for batch in batches]
            assert [len(points) for points in passes] == ([25] + [1] * 15) * used
            monkeypatch.undo()

    def test_the_first_restart_wins_a_tie(self, monkeypatch):
        # every decodable point scores the same and each restart evaluates only its
        # start point: every restart's best ties, and the first restart's start wins
        seed, n = 9, n_params("eq11", 2, 2)
        point_slacks = explore._point_slacks

        def start_only(x0, xatol, fatol, max_evals):
            yield x0[None]

        def tied(*args):
            slacks, decodable = point_slacks(*args)
            return np.where(decodable, 0.25, slacks), decodable

        monkeypatch.setattr(explore, "_nelder_mead", start_only)
        monkeypatch.setattr(explore, "_point_slacks", tied)
        state, x, y, _ = decode_point(spawn_rng(seed, 0).standard_normal(n), 2, 2, False)
        for target in (None, -math.inf):
            result = minimize_slack("eq11", 2, 2, restarts=3, seed=seed, target=target)
            assert (result.evaluations, result.restarts_used) == (3, 3), target
            assert result.state.rho.tobytes() == state.rho.tobytes(), target
            assert result.x.vectors.tobytes() == x.vectors.tobytes(), target
            assert result.y.vectors.tobytes() == y.vectors.tobytes(), target
        reached = minimize_slack("eq11", 2, 2, restarts=3, seed=seed, target=0.25)
        assert (reached.evaluations, reached.restarts_used) == (1, 1)
        assert reached.state.rho.tobytes() == state.rho.tobytes()

    @pytest.mark.parametrize(
        "relation, d_a, d_b, restarts, max_evals, sizes",
        [
            # 11 simplices of 25 points fill a pass and spill into the next
            ("eq11", 2, 2, 11, 30, [256, 19] + [11] * 5),
            # the window takes 256 restarts at a time: 256 simplices of 21 points
            # and 256 single points, then 4 simplices and 4 single points
            ("eq5", 2, 1, 260, 22, [256] * 21 + [256, 84, 4]),
        ],
    )
    def test_no_pass_holds_more_than_a_chunk(self, relation, d_a, d_b, restarts, max_evals, sizes, monkeypatch):
        assert explore.STACK_CHUNK == 256
        kw = dict(restarts=restarts, seed=6, max_evals=max_evals)
        searches, passes = recorded_search(monkeypatch)
        side_by_side = minimize_slack(relation, d_a, d_b, **kw)
        assert [len(points) for points in passes] == sizes
        windows = [searches[i : i + 256] for i in range(0, restarts, 256)]
        pending = [batch for window in windows for tick in ticks(window) for batch in tick]
        assert np.concatenate(passes).tobytes() == np.concatenate(pending).tobytes()
        monkeypatch.undo()
        assert result_bytes(side_by_side) == result_bytes(minimize_slack(relation, d_a, d_b, target=-math.inf, **kw))


def scipy_nelder_mead(fun, x0, xatol, fatol, max_evals):
    """scipy's non-adaptive Nelder-Mead, called as ``minimize_slack`` called it."""
    from scipy.optimize import minimize

    options = {"xatol": xatol, "fatol": fatol, "maxfev": max_evals, "maxiter": max_evals, "adaptive": False}
    return minimize(fun, x0, method="Nelder-Mead", options=options)


def asked(search):
    """A per-point callback ``search`` under ``_nelder_mead``'s ask/tell contract.

    The search runs in a thread that hands each point over a queue and
    waits for its value: each point is yielded as a batch of one.
    """

    def steps(x0, xatol, fatol, max_evals):
        points, values = queue.Queue(1), queue.Queue(1)

        def fun(x):
            points.put(x.copy())
            return values.get()

        def run():
            try:
                search(fun, x0, xatol, fatol, max_evals)
            finally:
                points.put(None)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        while (x := points.get(timeout=60)) is not None:
            values.put((yield x[None])[0])
        thread.join(timeout=60)
        assert not thread.is_alive()

    return steps


def evaluated_points(search, fun, x0, xatol=1e-9, fatol=1e-12, max_evals=1000, batches=None):
    """The bytes of every point ``search`` asks the per-point ``fun`` for in its batches, in order.

    The size of each batch is appended to ``batches`` when one is given.
    """
    points = []
    steps = search(x0, xatol, fatol, max_evals)
    try:
        xs = next(steps)
        while True:
            if batches is not None:
                batches.append(len(xs))
            points.extend(x.tobytes() for x in xs)
            xs = steps.send([fun(x) for x in xs])
    except StopIteration:
        return points


def flat(x):
    return 1.0


def nonsmooth(x):
    return float(np.max(np.abs(x - 0.3)) + 0.1 * abs(x[0]))


class TestNelderMead:
    """``explore._nelder_mead`` calls its objective at scipy's points, in scipy's order."""

    def assert_same_search(self, fun, x0, **kw):
        ours = evaluated_points(explore._nelder_mead, fun, x0, **kw)
        assert ours == evaluated_points(asked(scipy_nelder_mead), fun, x0, **kw)
        return ours

    def test_tolerance_exit_on_a_smooth_function(self):
        x0 = np.random.default_rng(1).standard_normal(6)
        weights = np.arange(1.0, 7.0)

        def smooth(x):
            return float(np.sum(weights * (x - 0.5) ** 2) + 0.1 * np.sum(x) ** 4)

        points = self.assert_same_search(smooth, x0, xatol=1e-3, fatol=1e-3, max_evals=10_000)
        result = scipy_nelder_mead(smooth, x0, 1e-3, 1e-3, 10_000)
        assert result.status == 0 and len(points) == result.nfev < 10_000

    def test_budget_ending_inside_the_initial_simplex(self):
        x0 = np.random.default_rng(2).standard_normal(6)
        x0[2] = 0.0  # a zero coordinate takes the 0.00025 vertex rule
        assert len(self.assert_same_search(nonsmooth, x0, max_evals=4)) == 4

    def test_budget_ending_inside_a_shrink(self):
        # on a flat objective every step reflects, contracts inside and then
        # shrinks: N + 1 calls for the simplex, 2 before each shrink of N calls
        x0 = np.random.default_rng(3).standard_normal(6)
        budget = 7 + 2 + 6 + 2 + 3
        assert len(self.assert_same_search(flat, x0, max_evals=budget)) == budget

    def test_initial_simplex_and_shrinks_go_as_one_batch_each(self):
        # on the flat objective of the shrink test: the 7-point simplex, a
        # reflection and a contraction, a 6-point shrink, and so on; a batch
        # that would pass the budget is cut at it
        x0 = np.random.default_rng(3).standard_normal(6)
        for budget, expected in ((4, [4]), (7, [7]), (7 + 2 + 6 + 2 + 3, [7, 1, 1, 6, 1, 1, 3])):
            batches = []
            points = evaluated_points(explore._nelder_mead, flat, x0, max_evals=budget, batches=batches)
            assert batches == expected and len(points) == budget

    def test_every_budget_on_a_nonsmooth_function(self):
        x0 = np.random.default_rng(4).standard_normal(4)
        for max_evals in range(1, 90):
            assert len(self.assert_same_search(nonsmooth, x0, max_evals=max_evals)) == max_evals

    def test_tied_values_on_a_plateau(self):
        # minimize_slack scores an undecodable point 1e3; argsort is not
        # stable, so ties test the sorts as well as the steps
        x0 = np.random.default_rng(5).standard_normal(24)
        level = float(np.sum(x0))

        def plateau(x):
            return 1e3 if np.sum(x) > level else float(np.sum(x**2))

        values = [plateau(np.frombuffer(p)) for p in self.assert_same_search(plateau, x0, max_evals=1500)]
        assert values.count(1e3) > 100 and len(set(values)) > 1000

    @pytest.mark.parametrize("relation, d_a, d_b", [("eq11", 2, 2), ("eq16", 3, 2)])
    def test_minimize_slack_gives_scipys_result(self, relation, d_a, d_b, monkeypatch):
        from qir import serialize

        def search():
            result = minimize_slack(relation, d_a, d_b, restarts=2, seed=3, max_evals=400)
            return json.dumps(serialize.argmin_to_dict(result))

        ours = search()
        monkeypatch.setattr(explore, "_nelder_mead", asked(scipy_nelder_mead))
        assert search() == ours

    def test_a_search_imports_no_scipy(self):
        proc = run_fresh(
            "import sys, qir\n"
            "qir.minimize_slack('eq11', 2, 2, restarts=1, seed=0, max_evals=30)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
