"""Monte Carlo field generator and calibration harness."""

import ctypes
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from topostat import StatField, build_lattice, expected_ec, local_maxima
from topostat import corrected_threshold, intrinsic_volumes, lkc_vector
from topostat import _parallel, glm, simulate
from topostat.domain import lattice_euler_characteristic
from topostat.glm import DesignMatrix, FieldType, fit, normalized_residuals, t_map
from topostat.lkc import lattice_smoothness
from topostat.preproc import _gaussian_kernel, _kernel_radius
from topostat.simulate import (
    SimConfig,
    effective_fwhm,
    gen_field,
    generator_resels,
    mc_calibrate,
    mc_ec,
    mc_fwe,
)

GAUSS = FieldType.gaussian()


def whole_box_smooth(rng, dims, fwhm):
    """Test-only reference: convolve every axis over the whole padded box,
    then crop once."""
    pads = [_kernel_radius(f) for f in fwhm]
    big = rng.standard_normal(tuple(n + 2 * p for n, p in zip(dims, pads)))
    norm = 1.0
    for ax, f in enumerate(fwhm):
        if f == 0:
            continue
        k = _gaussian_kernel(f)
        big = ndimage.convolve1d(big, k, axis=ax, mode="constant")
        norm *= math.sqrt(float((k * k).sum()))
    crop = tuple(slice(p, p + n) for p, n in zip(pads, dims))
    return big[crop] / norm


def per_field_smooth(rng, dims, fwhm):
    """Test-only reference: one field drawn into fresh arrays, the padded
    noise and each axis pass's output, with each axis cropped right after
    its pass."""
    pads = [_kernel_radius(f) for f in fwhm]
    field = rng.standard_normal(tuple(n + 2 * p for n, p in zip(dims, pads)))
    norm = 1.0
    for ax, (f, p, n) in enumerate(zip(fwhm, pads, dims)):
        if f == 0:
            continue
        k = _gaussian_kernel(f)
        field = ndimage.convolve1d(field, k, axis=ax, mode="constant")
        field = field[(slice(None),) * ax + (slice(p, p + n),)]
        norm *= math.sqrt(float((k * k).sum()))
    return field / norm


def reference_fit(config, index):
    """Test-only reference: a student_t realization's fields drawn one by one
    into fresh arrays, stacked, and fitted afresh; returns (data, fit)."""
    rng = simulate._rng_for(config.seed, index)
    data = np.stack([per_field_smooth(rng, config.dims, config.fwhm).ravel()
                     for _ in range(config.n_subjects)])
    return data.copy(), fit(data, DesignMatrix(np.ones((config.n_subjects, 1)), ("mean",)))


def reference_values(config, index, with_residuals=False):
    """Test-only reference: one realization drawn as the separate EC and
    FWE loops drew it (t map, plus residuals for the FWE loop)."""
    rng = simulate._rng_for(config.seed, index)
    if config.field == "gaussian":
        return whole_box_smooth(rng, config.dims, config.fwhm), None
    data = np.stack([whole_box_smooth(rng, config.dims, config.fwhm).ravel()
                     for _ in range(config.n_subjects)])
    glm_fit = fit(data, DesignMatrix(np.ones((config.n_subjects, 1)), ("mean",)))
    stat = t_map(glm_fit, [1.0]).values.reshape(config.dims)
    return stat, normalized_residuals(glm_fit) if with_residuals else None


def reference_field_type(config):
    if config.field == "gaussian":
        return GAUSS
    return FieldType.student_t(config.n_subjects - 1)


def reference_mc_ec(config, thresholds):
    """Test-only reference: the EC loop as its own pass over the realizations."""
    thresholds = [float(t) for t in np.atleast_1d(thresholds)]
    ecs = np.empty((config.n_realizations, len(thresholds)))
    for i in range(config.n_realizations):
        vals, _ = reference_values(config, i)
        for j, t in enumerate(thresholds):
            ecs[i, j] = lattice_euler_characteristic(vals >= t)
    se = (ecs.std(axis=0, ddof=1) / math.sqrt(config.n_realizations)
          if config.n_realizations > 1 else np.zeros(len(thresholds)))
    return {
        "thresholds": thresholds,
        "mean_ec": ecs.mean(axis=0).tolist(),
        "se": se.tolist(),
        "expected_ec": expected_ec(generator_resels(config), reference_field_type(config),
                                   np.array(thresholds)).tolist(),
        "n_realizations": config.n_realizations,
    }


def reference_mc_fwe(config, alpha):
    """Test-only reference: the FWE loop as its own pass over the realizations."""
    ftype = reference_field_type(config)
    n_exceed = 0
    threshold = None
    if config.field == "gaussian":
        threshold = corrected_threshold(alpha, generator_resels(config), ftype)
        for i in range(config.n_realizations):
            if reference_values(config, i)[0].max() > threshold:
                n_exceed += 1
    else:
        space = build_lattice(config.dims, np.ones(config.dims, dtype=bool))
        mu = intrinsic_volumes(space)
        for i in range(config.n_realizations):
            stat, residuals = reference_values(config, i, with_residuals=True)
            top, fwhm = lattice_smoothness(residuals, space)
            thr = corrected_threshold(alpha, lkc_vector(top, mu, fwhm=fwhm), ftype)
            if stat.max() > thr:
                n_exceed += 1
    n = config.n_realizations
    lo, hi = simulate._wilson_ci(n_exceed, n)
    return {"alpha": alpha, "corrected_threshold": threshold, "empirical_fwe": n_exceed / n,
            "ci": [lo, hi], "n_exceed": n_exceed, "n_realizations": n}


class TestGenField:
    def test_white_noise_unit_variance(self):
        cfg = SimConfig(dims=(1024, 1024), fwhm=(0.0, 0.0),
                        n_realizations=1, seed=1)
        f = gen_field(cfg, 0)
        assert f.var() == pytest.approx(1.0, rel=0.01)

    def test_smoothed_unit_variance(self):
        cfg = SimConfig(dims=(256, 256), fwhm=(6.0, 6.0),
                        n_realizations=1, seed=2)
        fields = np.stack([gen_field(cfg, i) for i in range(8)])
        assert fields.var() == pytest.approx(1.0, rel=0.02)

    def test_deterministic_per_seed_and_index(self):
        cfg = SimConfig(dims=(32, 32), fwhm=(4.0, 4.0), n_realizations=2, seed=3)
        assert np.array_equal(gen_field(cfg, 0), gen_field(cfg, 0))
        assert not np.array_equal(gen_field(cfg, 0), gen_field(cfg, 1))
        other = SimConfig(dims=(32, 32), fwhm=(4.0, 4.0), n_realizations=2, seed=4)
        assert not np.array_equal(gen_field(cfg, 0), gen_field(other, 0))

    def test_order_independent(self):
        cfg = SimConfig(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=3, seed=5)
        later = gen_field(cfg, 2)
        first = gen_field(cfg, 0)
        assert np.array_equal(later, gen_field(cfg, 2))
        assert np.array_equal(first, gen_field(cfg, 0))

    def test_lag_autocorrelation_matches_kernel(self):
        # self-convolved kernel ACF: value 1/4 at lag = fwhm
        fwhm = 8.0
        cfg = SimConfig(dims=(192, 192), fwhm=(fwhm, fwhm),
                        n_realizations=60, seed=6)
        num = den = 0.0
        lag = int(fwhm)
        for i in range(cfg.n_realizations):
            f = gen_field(cfg, i)
            num += (f[:-lag, :] * f[lag:, :]).sum()
            den += (f * f).sum()
        assert num / den == pytest.approx(0.25, rel=0.10)

    def test_memory_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            SimConfig(dims=(64, 64), fwhm=(30.0, 30.0), n_realizations=1,
                      seed=0, max_field_bytes=10_000)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="field"):
            SimConfig(dims=(8, 8), fwhm=(2.0, 2.0), n_realizations=1,
                      seed=0, field="cauchy")
        with pytest.raises(ValueError, match="n_realizations"):
            SimConfig(dims=(8, 8), fwhm=(2.0, 2.0), n_realizations=0, seed=0)
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"dims": [8, 8], "fwhm": 2.0,
                                 "n_realizations": 1, "seed": 0, "bogus": 1})
        with pytest.raises(ValueError, match="missing"):
            SimConfig.from_dict({"dims": [8, 8]})
        for bad in (-1.0, math.nan, math.inf, "inf"):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SimConfig(dims=(8, 8), fwhm=(2.0, bad), n_realizations=1, seed=0)


class TestPerAxisCropMatchesWholeBox:
    @pytest.mark.parametrize("dims,fwhm", [
        ((50,), (3.0,)),
        ((20, 17), (4.0, 0.0)),
        ((16, 13), (2.5, 5.0)),
        ((9, 8, 7), (2.0, 3.0, 0.0)),
        ((7, 9, 8), (0.0, 2.5, 1.5)),
        ((6, 5, 4), (0.0, 0.0, 0.0)),
    ])
    def test_bit_identical(self, dims, fwhm):
        for index in range(3):
            got = gen_field(SimConfig(dims=dims, fwhm=fwhm, n_realizations=3, seed=4), index)
            want = whole_box_smooth(simulate._rng_for(4, index), dims, fwhm)
            assert got.shape == dims
            assert np.array_equal(got, want)


class TestReusedBuffersMatchFreshArrays:
    @settings(max_examples=60)
    @given(dims=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           fwhm=st.lists(st.one_of(st.just(0.0), st.floats(0.5, 5.0)), min_size=3, max_size=3),
           n_fields=st.integers(1, 13), seed=st.integers(0, 2**64 - 1))
    def test_bit_identical(self, dims, fwhm, n_fields, seed):
        # one field is a gaussian realization; more are a student_t one's subjects
        cfg = SimConfig(dims=tuple(dims), fwhm=tuple(fwhm[:len(dims)]), n_realizations=3,
                        seed=seed, field="gaussian" if n_fields == 1 else "student_t",
                        n_subjects=max(n_fields, 2))
        for index in range(cfg.n_realizations):
            want = per_field_smooth(simulate._rng_for(seed, index), cfg.dims, cfg.fwhm)
            assert np.array_equal(gen_field(cfg, index), want)
        if n_fields == 1:
            return
        seen = []
        fit_afresh = glm.fit

        def spy(data, design):
            got = data.copy()
            out = fit_afresh(data, design)
            seen.append((got, out.betas.copy(), out.ssr.copy(), out.residuals.copy()))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "fit", spy)
            mc_ec(cfg, [0.0])
        assert len(seen) == cfg.n_realizations
        for index, (data, betas, ssr, residuals) in enumerate(seen):
            want_data, want = reference_fit(cfg, index)
            assert np.array_equal(data, want_data)
            assert np.array_equal(betas, want.betas)
            assert np.array_equal(ssr, want.ssr)
            assert np.array_equal(residuals, want.residuals)

    def test_one_data_buffer_for_every_realization(self, monkeypatch):
        cfg = SimConfig(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=6, seed=21,
                        field="student_t", n_subjects=5)
        stacks = []  # each kept alive, so a fresh stack per realization gets a new address
        fit_afresh = glm.fit

        def spy(data, design):
            stacks.append(data)
            return fit_afresh(data, design)

        monkeypatch.setattr(glm, "fit", spy)
        mc_calibrate(cfg, [0.0], 0.5)
        assert len(stacks) == cfg.n_realizations > _parallel.SLOTS
        # the fit takes over the block of _ahead: its one buffer, or a ring slot
        assert len({x.ctypes.data for x in stacks}) <= _parallel.SLOTS


class TestOnePassMatchesSeparateLoops:
    @pytest.mark.parametrize("kwargs,thresholds,alpha", [
        (dict(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=8, seed=21,
              field="student_t", n_subjects=5), [2.5, -1.0, 0.0, 1.5], 0.5),
        (dict(dims=(40,), fwhm=(4.0,), n_realizations=6, seed=22,
              field="student_t", n_subjects=6), [1.0, -2.0], 0.3),
        (dict(dims=(8, 7, 6), fwhm=(2.0, 0.0, 3.0), n_realizations=4, seed=23,
              field="student_t", n_subjects=6), [3.0, 1.0], 0.9),
        (dict(dims=(30, 20), fwhm=(5.0, 3.0), n_realizations=12, seed=24),
         [2.0, -0.5, 1.0], 0.5),
        (dict(dims=(24, 24), fwhm=(4.0, 4.0), n_realizations=1, seed=25,
              field="student_t", n_subjects=5), [2.0, 0.5], 0.9),
        (dict(dims=(24, 24), fwhm=(4.0, 4.0), n_realizations=1, seed=26),
         [-1.0, 1.0], 0.9),
    ])
    def test_reports_equal_reference(self, kwargs, thresholds, alpha):
        cfg = SimConfig(**kwargs)
        want_ec = reference_mc_ec(cfg, thresholds)
        want_fwe = reference_mc_fwe(cfg, alpha)
        assert mc_ec(cfg, thresholds) == want_ec
        assert mc_fwe(cfg, alpha) == want_fwe
        assert mc_calibrate(cfg, thresholds, alpha) == {**want_ec, **want_fwe}
        if cfg.n_realizations == 1:
            assert want_ec["se"] == [0.0] * len(thresholds)

    def test_resels_come_from_fit_resels_once_per_fit(self, resel_chain):
        cfg = SimConfig(dims=(12, 10), fwhm=(2.0, 2.0), n_realizations=4, seed=5,
                        field="student_t", n_subjects=5)
        mc_calibrate(cfg, [0.0, 1.0], 0.5)
        assert resel_chain == resel_chain.one_fit * cfg.n_realizations
        del resel_chain[:]
        mc_ec(cfg, [0.0, 1.0])  # the EC tally needs the t maps alone
        mc_fwe(SimConfig(**{**vars(cfg), "field": "gaussian"}), 0.5)  # generator resels
        assert resel_chain == []

    def test_both_tallies_are_exercised(self):
        # the cases above would compare nothing if every realization
        # exceeded (or none did), or every EC were equal
        cfg = SimConfig(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=8, seed=21,
                        field="student_t", n_subjects=5)
        out = mc_calibrate(cfg, [2.5, -1.0, 0.0, 1.5], 0.5)
        assert 0 < out["n_exceed"] < cfg.n_realizations
        assert all(se > 0 for se in out["se"])


PRODUCER_SCRIPT = """
import os, sys
from topostat import _parallel, lkc, simulate

case = sys.argv[1]
# the producer path, whatever this host's core count: 2 producers, or 3
_parallel.WORKERS = 3 if case.endswith("on 3") else 2
cfg = simulate.SimConfig(dims=(12, 10), fwhm=2.0, n_realizations=6, seed=1,
                         field="student_t", n_subjects=5)
real_smoothness, real_rng_for, calls = lkc.lattice_smoothness, simulate._rng_for, []
real_fork, forks = os.fork, []
failing = 0 if case.endswith("at 0") else 1  # the block, and so the producer, that fails


def smoothness_failing_second(*args):
    calls.append(args)
    if len(calls) == 2:
        raise ValueError("the caller failed")
    return real_smoothness(*args)


def rng_failing(seed, index):
    if index == failing:
        raise ValueError("the producer failed")
    return real_rng_for(seed, index)


def fork_failing_second():
    forks.append(None)
    if len(forks) == 2:
        raise OSError("the second fork failed")
    return real_fork()


if case == "caller":
    lkc.lattice_smoothness = smoothness_failing_second
elif case.startswith("producer"):
    simulate._rng_for = rng_failing  # the fork inherits the patch
elif case == "fork":
    os.fork = fork_failing_second
fds = sorted(os.listdir("/dev/fd"))
try:
    if case.startswith("early"):
        with _parallel._ahead(lambda i, out: out.fill(i), 10, (2,)) as blocks:
            print(next(blocks).tolist())
    elif case == "interrupt":
        print("started", flush=True)
        simulate.mc_calibrate(simulate.SimConfig(**{**vars(cfg), "n_realizations": 10 ** 6}),
                              [0.0], 0.5)
    else:
        simulate.mc_calibrate(cfg, [0.0], 0.5)
    print("returned")
except BaseException as exc:
    print(type(exc).__name__)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
if sorted(os.listdir("/dev/fd")) == fds:
    print("no pipe left")
"""


def script_env():
    """This environment, with the package under test first on the path."""
    src = str(Path(simulate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


class TestForkedProducer:
    @pytest.mark.parametrize("kwargs,thresholds,alpha", [
        (dict(dims=(40,), fwhm=(4.0,), n_realizations=3, seed=31), [1.0, -0.5], 0.3),
        (dict(dims=(16, 14), fwhm=(3.0, 2.0), n_realizations=7, seed=32), [2.0, 0.0], 0.5),
        (dict(dims=(8, 7, 6), fwhm=(2.0, 0.0, 3.0), n_realizations=4, seed=33), [1.0], 0.5),
        (dict(dims=(12, 10), fwhm=(2.0, 2.0), n_realizations=1, seed=34), [0.0], 0.5),
        (dict(dims=(40,), fwhm=(4.0,), n_realizations=6, seed=35,
              field="student_t", n_subjects=6), [1.0, -2.0], 0.3),
        (dict(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=8, seed=36,
              field="student_t", n_subjects=5), [2.5, 0.0], 0.5),
        (dict(dims=(8, 7, 6), fwhm=(2.0, 0.0, 3.0), n_realizations=4, seed=37,
              field="student_t", n_subjects=6), [3.0, 1.0], 0.9),
        (dict(dims=(12, 10), fwhm=(2.0, 2.0), n_realizations=1, seed=38,
              field="student_t", n_subjects=5), [0.0], 0.5),
    ])
    def test_same_report(self, workers, kwargs, thresholds, alpha):
        cfg = SimConfig(**kwargs)
        reports = []
        # inline, then 2 and 3 forked producers; 3 do not divide the ring's slots
        for n in (1, 2, 3):
            with workers(n):
                reports.append(mc_calibrate(cfg, thresholds, alpha))
        assert reports[0] == reports[1] == reports[2]

    # each case runs in a fresh interpreter, so a hang fails on the timeout
    # and a leftover child is seen by waitpid(-1)
    @pytest.mark.parametrize("case,want", [
        ("none", ["returned"]),
        ("caller", ["ValueError"]),
        ("producer", ["RuntimeError"]),
        ("early", ["[0.0, 0.0]", "returned"]),
        ("producer at 0", ["RuntimeError"]),
        ("early on 3", ["[0.0, 0.0]", "returned"]),
        ("fork", ["OSError"]),
    ])
    def test_no_producer_outlives_the_call(self, case, want):
        # "producer" fails in the second of the two producers, "producer at 0" in the first
        proc = subprocess.run([sys.executable, "-c", PRODUCER_SCRIPT, case],
                              capture_output=True, text=True, env=script_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [*want, "no child left", "no pipe left"]
        assert ("the producer failed" in proc.stderr) == case.startswith("producer")

    def test_interrupt_reaches_the_caller_alone(self):
        # a terminal's Ctrl-C goes to the whole process group; the producer
        # ignores it and ends when the interrupted caller leaves
        proc = subprocess.Popen([sys.executable, "-c", PRODUCER_SCRIPT, "interrupt"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=script_env(), start_new_session=True)
        try:
            assert proc.stdout.readline() == "started\n"
            time.sleep(1.0)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert out.splitlines() == ["KeyboardInterrupt", "no child left", "no pipe left"], err


FAULT_SCRIPT = """
import resource, sys
from topostat.cli import main

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert main(["simulate", sys.argv[1], "-o", sys.argv[2]]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestPerRealizationCostIsFlat:
    """A realization repeats none of the work that depends only on the config."""

    def test_design_factors_computed_once_per_run(self):
        counts = []
        for n in (3, 9):
            cfg = SimConfig(dims=(16, 16), fwhm=(3.0, 3.0), n_realizations=n, seed=21,
                            field="student_t", n_subjects=5)
            with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                mc_calibrate(cfg, [0.0], 0.5)
            counts.append(svd.call_count)
        assert counts[0] == counts[1] == 1

    def test_freed_heap_is_reused_not_refaulted(self, tmp_path):
        # each count comes from a fresh interpreter running the command line,
        # which is where the allocator is set; the difference leaves out start-up
        pytest.importorskip("resource")
        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("the C library has no mallopt")
        faults = {}
        for n in (20, 60):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"dims": [64, 64], "fwhm": 4.0, "field": "student_t",
                                       "n_subjects": 13, "n_realizations": n, "seed": 3}))
            proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, str(cfg),
                                   str(tmp_path / f"r{n}.json")],
                                  capture_output=True, text=True, env=script_env(), timeout=300)
            assert proc.returncode == 0, proc.stderr
            faults[n] = int(proc.stdout.splitlines()[-1])
        assert (faults[60] - faults[20]) / 40 < 25, faults


class TestGeneratorResels:
    def test_isotropic_box(self):
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0), n_realizations=1, seed=0)
        rv = generator_resels(cfg)
        f = effective_fwhm(cfg)[0]
        assert rv.resels[0] == 1.0
        assert rv.resels[1] == pytest.approx(2 * 63 / f)
        assert rv.resels[2] == pytest.approx(63 * 63 / f ** 2)

    def test_anisotropic_box(self):
        cfg = SimConfig(dims=(40, 20), fwhm=(8.0, 4.0), n_realizations=1, seed=0)
        rv = generator_resels(cfg)
        fx, fy = effective_fwhm(cfg)
        assert rv.resels[1] == pytest.approx(39 / fx + 19 / fy)
        assert rv.resels[2] == pytest.approx(39 * 19 / (fx * fy))


class TestMcEc:
    def test_threshold_below_min_gives_box_euler(self):
        cfg = SimConfig(dims=(24, 24), fwhm=(4.0, 4.0), n_realizations=3, seed=7)
        out = mc_ec(cfg, [-1e9])
        assert out["mean_ec"][0] == 1.0

    def test_threshold_above_max_gives_zero(self):
        cfg = SimConfig(dims=(24, 24), fwhm=(4.0, 4.0), n_realizations=3, seed=8)
        out = mc_ec(cfg, [1e9])
        assert out["mean_ec"][0] == 0.0

    def test_excursion_set_includes_the_threshold(self):
        cfg = SimConfig(dims=(24, 24), fwhm=(4.0, 4.0), n_realizations=1, seed=8)
        top = float(gen_field(cfg, 0).max())
        assert mc_calibrate(cfg, [top], 0.05)["mean_ec"] == [1.0]

    def test_poisson_clumping_regime(self):
        # at high thresholds the EC equals the count of suprathreshold
        # local maxima in nearly every realization
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0),
                        n_realizations=200, seed=9)
        space = build_lattice((64, 64), np.ones(64 * 64, dtype=bool))
        agree = 0
        for i in range(cfg.n_realizations):
            f = gen_field(cfg, i)
            ec = lattice_euler_characteristic(f >= 3.0)
            n_max = len(local_maxima(StatField(f.ravel(), GAUSS), space, 3.0))
            agree += ec == n_max
        assert agree / cfg.n_realizations >= 0.99

    def test_mean_ec_bounds_max_probability(self):
        # realization-wise EC >= 1{max >= t} in the clumping regime, so
        # the mean EC dominates the exceedance probability
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0),
                        n_realizations=300, seed=10)
        for t in (2.5, 3.0):
            exceed = 0
            ec_sum = 0.0
            for i in range(cfg.n_realizations):
                f = gen_field(cfg, i)
                ec_sum += lattice_euler_characteristic(f >= t)
                exceed += f.max() >= t
            assert ec_sum / cfg.n_realizations >= exceed / cfg.n_realizations


class TestMcFwe:
    def test_alpha_one_degenerate_bound(self):
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0),
                        n_realizations=60, seed=11)
        out = mc_fwe(cfg, alpha=1.0)
        assert out["corrected_threshold"] == 2.0  # bracketing floor
        assert out["empirical_fwe"] > 0.9

    def test_gaussian_mode_calibrated(self):
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0),
                        n_realizations=600, seed=12)
        out = mc_fwe(cfg, alpha=0.05)
        assert 0.02 <= out["empirical_fwe"] <= 0.08
        assert out["ci"][0] < out["empirical_fwe"] < out["ci"][1]

    def test_student_t_pipeline_calibrated(self):
        # end-to-end: per-realization GLM, smoothness estimation and
        # threshold with 13 synthetic subjects
        cfg = SimConfig(dims=(64, 64), fwhm=(6.0, 6.0), n_realizations=1500,
                        seed=13, field="student_t", n_subjects=13)
        out = mc_fwe(cfg, alpha=0.05)
        assert 0.03 <= out["empirical_fwe"] <= 0.07

    def test_lkc_loop_closure(self):
        # the curvature estimator run on GLM residuals of generated data
        # recovers the generator's top resel count within 10%
        from topostat import DesignMatrix, fit, intrinsic_volumes, lkc_top
        from topostat import lkc_vector, normalized_residuals
        cfg = SimConfig(dims=(48, 48), fwhm=(6.0, 6.0), n_realizations=20,
                        seed=14)
        data = np.stack([gen_field(cfg, i).ravel() for i in range(20)])
        design = DesignMatrix(np.ones((20, 1)), ("mean",))
        res = normalized_residuals(fit(data, design))
        space = build_lattice((48, 48), np.ones(48 * 48, dtype=bool))
        rv = lkc_vector(lkc_top(res, space), intrinsic_volumes(space))
        want = generator_resels(cfg).resels[2]
        assert rv.resels[2] == pytest.approx(want, rel=0.10)
