"""On-disk dataset format and the command-line pipeline."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topostat
from topostat.cli import main
from topostat.dataset import read_dataset, write_dataset
from topostat.simulate import SimConfig, gen_field


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends ``name`` to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture()
def effect_dataset(tmp_path):
    """Smooth-noise observations with a strong localized effect, plus
    matching one-sample design and contrast files."""
    dims = (12, 12, 24)
    n_obs = 12
    cfg = SimConfig(dims=dims, fwhm=(4.0, 4.0, 4.0), n_realizations=n_obs,
                    seed=77)
    xx, yy, tt = np.meshgrid(*[np.arange(n, dtype=float) for n in dims],
                             indexing="ij")
    bump = 2.5 * np.exp(-((xx - 6) ** 2 + (yy - 6) ** 2 + (tt - 12) ** 2) / 18.0)
    vols = np.stack([gen_field(cfg, i) + bump for i in range(n_obs)])
    ds_dir = tmp_path / "ds"
    write_dataset(ds_dir, vols, axes=("x", "y", "time"),
                  units=("bins", "bins", "ms"))
    design = tmp_path / "design.csv"
    design.write_text("mean\n" + "\n".join("1" for _ in range(n_obs)) + "\n")
    contrast = tmp_path / "contrast.csv"
    contrast.write_text("1\n")
    return ds_dir, design, contrast


class TestDataset:
    def test_round_trip_values_and_mask(self, tmp_path):
        rng = np.random.default_rng(0)
        vols = rng.standard_normal((3, 4, 5))
        mask = rng.random(20) < 0.8
        mask[0] = True
        ds = write_dataset(tmp_path / "d", vols, axes=("a", "b"),
                           units=("bins", "ms"), mask=mask)
        again = read_dataset(tmp_path / "d")
        np.testing.assert_array_equal(again.load(), vols.reshape(3, 20))
        np.testing.assert_array_equal(again.load_mask(), mask)
        assert again.dims == (4, 5)
        assert again.units == ("bins", "ms")

    def test_truncated_file_rejected(self, tmp_path):
        vols = np.zeros((2, 4, 4))
        write_dataset(tmp_path / "d", vols)
        obs = tmp_path / "d" / "obs0001.bin"
        obs.write_bytes(obs.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_dataset(tmp_path / "d")

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(ValueError, match="meta.json"):
            read_dataset(tmp_path / "d")

    def test_wrong_dtype_rejected(self, tmp_path):
        write_dataset(tmp_path / "d", np.zeros((1, 3)))
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        meta["dtype"] = "f32le"
        (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="dtype"):
            read_dataset(tmp_path / "d")


class TestAnalyze:
    def test_detects_injected_effect(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        out = tmp_path / "out"
        rc = main(["analyze", str(ds), str(design), str(contrast),
                   "-o", str(out)])
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        assert len(results["peaks"]) >= 1
        best = results["peaks"][0]
        assert best["p_fwe"] < 0.05
        assert best["coords"][0] in range(4, 9)
        assert results["footnote"]["dof"] == [1.0, 11.0]

    def test_full_window_identical_to_none(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", str(ds), str(design), str(contrast),
                     "-o", str(a)]) == 0
        assert main(["analyze", str(ds), str(design), str(contrast),
                     "-o", str(b), "--window", "0:23"]) == 0
        assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_rerun_byte_identical(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        a, b = tmp_path / "r1", tmp_path / "r2"
        main(["analyze", str(ds), str(design), str(contrast), "-o", str(a)])
        main(["analyze", str(ds), str(design), str(contrast), "-o", str(b)])
        assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()

    def test_window_restricts_search_volume(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        full, win = tmp_path / "f", tmp_path / "w"
        main(["analyze", str(ds), str(design), str(contrast), "-o", str(full)])
        main(["analyze", str(ds), str(design), str(contrast), "-o", str(win),
              "--window", "6:18"])
        r_full = json.loads((full / "results.json").read_text())
        r_win = json.loads((win / "results.json").read_text())
        assert r_win["footnote"]["search_volume_bins"] == 12 * 12 * 13
        assert r_win["footnote"]["resels"][-1] < r_full["footnote"]["resels"][-1]

    def test_malformed_meta_exits_2_without_outputs(self, effect_dataset,
                                                    tmp_path):
        ds, design, contrast = effect_dataset
        (ds / "meta.json").write_text("{not json")
        out = tmp_path / "broken_out"
        rc = main(["analyze", str(ds), str(design), str(contrast),
                   "-o", str(out)])
        assert rc == 2
        assert not out.exists()

    def _mask_with_nan(self, ds, at):
        """Rewrite ``ds`` with its x = 0 plane masked out and NaN at
        observation 3, vertex ``at``; return that vertex's flat index."""
        vols = read_dataset(ds).load().reshape(12, 12, 12, 24)
        mask = np.ones((12, 12, 24), dtype=bool)
        mask[0] = False
        vols[(3,) + at] = np.nan
        vols[5, 0, 0, 0] = np.inf
        write_dataset(ds, vols, mask=mask)
        return int(np.ravel_multi_index(at, (12, 12, 24)))

    def test_non_finite_inside_mask_exits_2(self, effect_dataset, tmp_path, capsys):
        ds, design, contrast = effect_dataset
        vertex = self._mask_with_nan(ds, (5, 6, 7))
        out = tmp_path / "o"
        assert main(["analyze", str(ds), str(design), str(contrast), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "obs0003.bin" in err and f"vertex {vertex} (5, 6, 7)" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_outside_mask_accepted(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        self._mask_with_nan(ds, (0, 6, 7))
        for extra in ([], ["--smooth", "2,2,2"]):
            out = tmp_path / f"o{len(extra)}"
            assert main(["analyze", str(ds), str(design), str(contrast),
                         "-o", str(out)] + extra) == 0
            results = json.loads((out / "results.json").read_text())
            assert results["footnote"]["search_volume_bins"] == 11 * 12 * 24
            assert results["peaks"][0]["p_fwe"] < 0.05

    def test_fit_and_normalization_run_once(self, effect_dataset, tmp_path, monkeypatch):
        ds, design, contrast = effect_dataset
        fits = count_calls(monkeypatch, topostat.glm, "fit")
        normalizations = count_calls(monkeypatch, topostat.glm, "normalized_residuals")
        assert main(["analyze", str(ds), str(design), str(contrast),
                     "-o", str(tmp_path / "o")]) == 0
        assert len(fits) == len(normalizations) == 1

    @pytest.mark.parametrize("height_p", ["0", "1", "1.5", "nan"])
    def test_height_p_outside_unit_interval_exits_2(self, effect_dataset, tmp_path,
                                                    height_p):
        ds, design, contrast = effect_dataset
        out = tmp_path / "o"
        assert main(["analyze", str(ds), str(design), str(contrast), "-o", str(out),
                     "--height-p", height_p]) == 2
        assert not out.exists()

    def test_design_row_mismatch_exits_2(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        design.write_text("mean\n1\n1\n")
        rc = main(["analyze", str(ds), str(design), str(contrast),
                   "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_smoothing_flag_runs(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        out = tmp_path / "smoothed"
        rc = main(["analyze", str(ds), str(design), str(contrast),
                   "-o", str(out), "--smooth", "4,4,4"])
        assert rc == 0
        results = json.loads((out / "results.json").read_text())
        # extra smoothing widens the estimated kernel
        assert min(results["footnote"]["fwhm"]) > 4.5

    def test_report_numbers_all_live_in_json(self, effect_dataset, tmp_path):
        ds, design, contrast = effect_dataset
        out = tmp_path / "rep"
        main(["analyze", str(ds), str(design), str(contrast), "-o", str(out)])
        report = (out / "report.txt").read_text()
        results = json.loads((out / "results.json").read_text())

        numbers = []

        def collect(node):
            if isinstance(node, bool):
                return
            if isinstance(node, (int, float)):
                numbers.append(float(node))
            elif isinstance(node, dict):
                for v in node.values():
                    collect(v)
            elif isinstance(node, list):
                for v in node:
                    collect(v)

        collect(results)
        for token in re.findall(r"-?\d+(?:\.\d+)?", report):
            value = float(token)
            decimals = len(token.partition(".")[2])
            tol = 0.5 * 10.0 ** -decimals if decimals else 0.5
            assert any(abs(value - x) <= tol for x in numbers), \
                f"report number {token} not found in results.json"


class TestSimulateCommand:
    def _write_config(self, path, **overrides):
        config = {"dims": [24, 24], "fwhm": 4.0, "n_realizations": 2,
                  "seed": 9, "thresholds": [2.0, 3.0], "alpha": 0.05}
        config.update(overrides)
        path.write_text(json.dumps(config))

    def test_smoke_single_realization(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, n_realizations=1)
        out = tmp_path / "report.json"
        assert main(["simulate", str(cfg), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["n_realizations"] == 1
        assert len(report["mean_ec"]) == 2
        assert report["se"] == [0.0, 0.0]

    def test_fixed_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", str(cfg), "-o", str(a)])
        main(["simulate", str(cfg), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, field="bogus")
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "r.json")]) == 2
        cfg.write_text("{broken")
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("overrides,key", [
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64}, "seed"),
        ({"n_realizations": 2.7}, "n_realizations"),
        ({"field": "student_t", "n_subjects": 2.5}, "n_subjects"),
        ({"dims": [24.5, 24]}, "dims"),
        ({"thresholds": [2.0, float("nan")]}, "thresholds"),
        ({"thresholds": [float("inf")]}, "thresholds"),
        ({"field": "student_t", "alpha": 0}, "alpha"),
        ({"field": "student_t", "dims": [1, 24], "fwhm": [0.0, 4.0]}, "dims"),
        ({"field": "student_t", "dims": [8, 7, 6], "fwhm": 4.0, "n_subjects": 4},
         "n_subjects"),
    ])
    def test_bad_config_exits_2_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                overrides, key):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, **overrides)
        draws = count_calls(monkeypatch, topostat.simulate, "_rng_for")
        out = tmp_path / "r.json"
        assert main(["simulate", str(cfg), "-o", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("field,threshold_calls", [("student_t", 3), ("gaussian", 1)])
    def test_each_realization_drawn_and_fitted_once(self, tmp_path, monkeypatch,
                                                    field, threshold_calls):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, field=field, n_subjects=4, n_realizations=3)
        draws = count_calls(monkeypatch, topostat.simulate, "_rng_for")
        fits = count_calls(monkeypatch, topostat.glm, "fit")
        thresholds = count_calls(monkeypatch, topostat.ecd, "corrected_threshold")
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "r.json")]) == 0
        assert len(draws) == 3
        assert len(fits) == (3 if field == "student_t" else 0)
        assert len(thresholds) == threshold_calls


class TestTfCommand:
    def _signal_dataset(self, path, freq, n_obs=3, sr=100.0, seconds=20.0):
        t = np.arange(int(sr * seconds)) / sr
        rows = np.stack([np.sin(2 * np.pi * freq * t + 0.3 * i)
                         for i in range(n_obs)])
        write_dataset(path, rows, axes=("time",), units=("ms",))

    def test_in_band_tone_dominates(self, tmp_path):
        in_ds = tmp_path / "in20"
        ctrl_ds = tmp_path / "in40"
        self._signal_dataset(in_ds, 20.0)
        self._signal_dataset(ctrl_ds, 40.0)
        out_a, out_b = tmp_path / "band20", tmp_path / "band40"
        assert main(["tf", str(in_ds), "-o", str(out_a), "--band", "15:30",
                     "--freqs", "1:45", "--srate", "100"]) == 0
        assert main(["tf", str(ctrl_ds), "-o", str(out_b), "--band", "15:30",
                     "--freqs", "1:45", "--srate", "100"]) == 0
        power_in = read_dataset(out_a).load().mean()
        power_out = read_dataset(out_b).load().mean()
        assert power_in > 10 * power_out

    def test_zero_signals_zero_power(self, tmp_path):
        ds = tmp_path / "zeros"
        write_dataset(ds, np.zeros((2, 2000)), axes=("time",), units=("ms",))
        out = tmp_path / "zpow"
        assert main(["tf", str(ds), "-o", str(out)]) == 0
        assert np.all(read_dataset(out).load() == 0.0)

    def test_output_validates_as_dataset(self, tmp_path):
        ds = tmp_path / "sig"
        self._signal_dataset(ds, 20.0)
        out = tmp_path / "valid"
        main(["tf", str(ds), "-o", str(out)])
        again = read_dataset(out)
        assert again.dims == (2000,)
        assert again.n_obs == 3

    def test_band_outside_freqs_exits_2(self, tmp_path):
        ds = tmp_path / "sig2"
        self._signal_dataset(ds, 20.0)
        rc = main(["tf", str(ds), "-o", str(tmp_path / "o"), "--band", "50:60"])
        assert rc == 2

    def test_non_1d_dataset_exits_2(self, tmp_path):
        ds = tmp_path / "grid"
        write_dataset(ds, np.zeros((2, 4, 4)))
        assert main(["tf", str(ds), "-o", str(tmp_path / "o")]) == 2


class TestSmoothAndInfo:
    def test_smooth_constant_unchanged(self, tmp_path):
        ds = tmp_path / "const"
        write_dataset(ds, np.full((2, 10, 10), 1.25))
        out = tmp_path / "sm"
        assert main(["smooth", str(ds), "-o", str(out), "--fwhm", "4,4"]) == 0
        np.testing.assert_allclose(read_dataset(out).load(), 1.25, atol=1e-12)

    def test_info_happy_path(self, tmp_path, capsys):
        ds = tmp_path / "d"
        write_dataset(ds, np.zeros((2, 3, 3)))
        assert main(["info", str(ds)]) == 0
        text = capsys.readouterr().out
        assert "observations: 2" in text

    def test_info_truncated_exits_2(self, tmp_path):
        ds = tmp_path / "d"
        write_dataset(ds, np.zeros((2, 3, 3)))
        obs = ds / "obs0000.bin"
        obs.write_bytes(obs.read_bytes()[:-1])
        assert main(["info", str(ds)]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(topostat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, topostat.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
