"""On-disk dataset format and the command-line pipeline."""

import builtins
import functools
import inspect
import io
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import topostat
from topostat import _parallel
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


def log_draws(monkeypatch, path):
    """Make each ``simulate._rng_for`` call append its index as a line to the
    file ``path``, which is returned. The fields may be drawn in a forked
    producer, whose calls an in-process list would not see; both processes
    see the file."""
    rng_for = topostat.simulate._rng_for

    def logged(seed, index):
        with open(path, "a") as f:
            f.write(f"{index}\n")
        return rng_for(seed, index)

    monkeypatch.setattr(topostat.simulate, "_rng_for", logged)
    return path


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
        np.testing.assert_array_equal(again.mask, mask)
        assert not again.mask.flags.writeable
        assert again.dims == (4, 5)
        assert again.units == ("bins", "ms")

    def test_rewrite_leaves_only_the_new_datasets_files(self, tmp_path):
        mask = np.zeros(16, dtype=bool)
        mask[:4] = True
        write_dataset(tmp_path / "d", np.ones((3, 4, 4)), mask=mask)
        again = write_dataset(tmp_path / "d", np.zeros((2, 4, 4)))
        assert not again.has_mask
        assert again.mask.all()
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "meta.json", "obs0000.bin", "obs0001.bin"]

    def test_truncated_file_rejected(self, tmp_path):
        vols = np.zeros((2, 4, 4))
        write_dataset(tmp_path / "d", vols)
        obs = tmp_path / "d" / "obs0001.bin"
        obs.write_bytes(obs.read_bytes()[:-8])
        with pytest.raises(ValueError, match="bytes"):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("change", [lambda b: b[:-8], lambda b: b + b"\0" * 8],
                             ids=["shorter", "longer"])
    def test_file_resized_after_open_rejected_at_load(self, tmp_path, change):
        ds = write_dataset(tmp_path / "d", np.zeros((2, 4, 4)))
        obs = tmp_path / "d" / "obs0001.bin"
        obs.write_bytes(change(obs.read_bytes()))
        with pytest.raises(ValueError, match="obs0001.bin: .* bytes, expected 128"):
            ds.load()

    def test_first_bad_file_in_file_order_named(self, tmp_path, workers):
        # files are read and checked on the workers, one task per file; whichever
        # task fails first, the error raised is that of the first bad file
        vols = np.zeros((6, 4, 5))
        vols[4, 0, 0] = np.nan
        vols[2, 3, 4] = np.inf
        ds = write_dataset(tmp_path / "d", vols)
        for n_workers in (1, 2, 3):
            with workers(n_workers):
                with pytest.raises(ValueError, match=r"obs0002\.bin: non-finite value inf "
                                                     r"inside the mask at vertex 19 \(3, 4\)"):
                    ds.load()
        obs = tmp_path / "d" / "obs0001.bin"
        obs.write_bytes(obs.read_bytes()[:-8])
        for n_workers in (1, 2, 3):
            with workers(n_workers):
                with pytest.raises(ValueError, match=r"obs0001\.bin: 152 bytes"):
                    ds.load()

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(ValueError, match="meta.json"):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("n_obs,kwargs", [(2, {"axes": ("a",)}), (2, {"units": ("ms",) * 3}),
                                              (2, {"mask": np.ones(15, dtype=bool)}), (0, {})],
                             ids=["axes", "units", "mask", "no-observations"])
    def test_bad_write_leaves_nothing_on_disk(self, tmp_path, n_obs, kwargs):
        with pytest.raises(ValueError, match="must"):
            write_dataset(tmp_path / "d", np.zeros((n_obs, 4, 4)), **kwargs)
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key,value", [("n_obs", 2.5), ("n_obs", True),
                                           ("dims", [4.9, 4]), ("dims", [True, 16])])
    def test_fractional_or_bool_count_exits_2(self, tmp_path, capsys, key, value):
        write_dataset(tmp_path / "d", np.zeros((2, 4, 4)))
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        meta[key] = value
        (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
        assert main(["info", str(tmp_path / "d")]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,error", [
        ("dims", 12, "dims must be a nonempty list"),
        ("files", 5, "files must be a nonempty list"),
        ("axes", None, "axes must be a nonempty list"),
        ("units", "ms", "units must be a nonempty list"),
        ("files", ["obs0000.bin", "../e/obs0001.bin"], "not a plain file name"),
        ("files", ["obs0000.bin", "{e}/obs0001.bin"], "not a plain file name"),
        ("files", ["obs0000.bin", ".."], "not a plain file name"),
        ("files", ["obs0000.bin", 1], "not a plain file name"),
        ("axes", [1, None, "t"], "axes must be a list of strings"),
        ("units", ["bins", {"a": 1}, []], "units must be a list of strings"),
    ], ids=["dims-int", "files-int", "axes-null", "units-str", "files-parent",
            "files-absolute", "files-dotdot", "files-number", "axes-not-text",
            "units-not-text"])
    def test_malformed_meta_exits_2_naming_the_key(self, tmp_path, capsys, key, value,
                                                   error):
        # a second dataset beside the first, which a path in files could reach
        write_dataset(tmp_path / "e", np.ones((2, 4, 4)))
        write_dataset(tmp_path / "d", np.zeros((2, 4, 4)))
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        meta[key] = value
        text = json.dumps(meta).replace("{e}", str(tmp_path / "e"))  # an absolute path
        (tmp_path / "d" / "meta.json").write_text(text)
        assert main(["info", str(tmp_path / "d")]) == 2
        assert error in capsys.readouterr().err
        with pytest.raises(ValueError, match=error):
            read_dataset(tmp_path / "d")

    def test_repeated_observation_file_exits_2(self, effect_dataset, tmp_path, capsys):
        # the same file read twice would change the dof and the t map, not fail
        ds, design, contrast = effect_dataset
        meta = json.loads((ds / "meta.json").read_text())
        meta["files"][1] = meta["files"][0]
        (ds / "meta.json").write_text(json.dumps(meta))
        for argv in (["info", str(ds)],
                     ["analyze", str(ds), str(design), str(contrast), "-o", str(tmp_path / "o")]):
            assert main(argv) == 2
            assert re.search(r"meta\.json: files lists 'obs0000\.bin' more than once",
                             capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("byte", [2, 7, 255])
    def test_mask_byte_other_than_0_or_1_exits_2(self, effect_dataset, tmp_path, capsys, byte):
        ds, design, contrast = effect_dataset
        mask = np.ones(12 * 12 * 24, dtype=np.uint8)
        mask[[40, 41]] = [0, byte]
        (ds / "mask.bin").write_bytes(mask.tobytes())
        for argv in (["info", str(ds)],
                     ["analyze", str(ds), str(design), str(contrast), "-o", str(tmp_path / "o")]):
            assert main(argv) == 2
            assert re.search(rf"mask\.bin: byte {byte} at offset 41\b", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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

    def test_mask_read_once_and_applied_by_the_smoother(self, effect_dataset, tmp_path,
                                                        monkeypatch):
        ds, design, contrast = effect_dataset
        self._mask_with_nan(ds, (0, 6, 7))
        opened = []
        for owner in (io, builtins):
            real = owner.open

            def counted(file, *args, _real=real, **kwargs):
                opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else "")
                return _real(file, *args, **kwargs)

            monkeypatch.setattr(owner, "open", counted)
        smooths = count_calls(monkeypatch, topostat.preproc, "gaussian_smooth")
        assert main(["analyze", str(ds), str(design), str(contrast),
                     "-o", str(tmp_path / "o")]) == 0
        assert [Path(f).name for f in opened].count("mask.bin") == 1
        assert len(smooths) == 1  # zero widths: the smoother only masks

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

    def test_resels_come_from_fit_resels_once(self, effect_dataset, tmp_path, resel_chain):
        ds, design, contrast = effect_dataset
        for extra in ([], ["--window", "4:19"], ["--smooth", "2", "--two-sided"]):
            del resel_chain[:]
            assert main(["analyze", str(ds), str(design), str(contrast),
                         "-o", str(tmp_path / "out"), *extra]) == 0
            assert resel_chain == resel_chain.one_fit

    def test_fit_and_normalization_run_once(self, effect_dataset, tmp_path, monkeypatch,
                                            capsys):
        ds, design, contrast = effect_dataset
        loads = count_calls(monkeypatch, topostat.dataset.Dataset, "load")
        fits = count_calls(monkeypatch, topostat.glm, "fit")
        normalizations = count_calls(monkeypatch, topostat.glm, "normalized_residuals")
        n_obs = len(design.read_text().split()) - 1
        long_contrast = tmp_path / "long_contrast.csv"
        long_contrast.write_text("1,0\n")
        twins = tmp_path / "twins.csv"  # two equal columns: only a + b is estimable
        twins.write_text("a,b\n" + "1,1\n" * n_obs)
        saturated = tmp_path / "saturated.csv"  # one regressor per observation: dof 0
        saturated.write_text(",".join(f"r{i}" for i in range(n_obs)) + "\n" + "".join(
            ",".join("1" if j == i else "0" for j in range(n_obs)) + "\n"
            for i in range(n_obs)))
        saturated_contrast = tmp_path / "saturated_contrast.csv"
        saturated_contrast.write_text(",".join(["1"] * n_obs) + "\n")
        zero_contrast = tmp_path / "zero_contrast.csv"
        zero_contrast.write_text("0\n")
        # n_obs - 3 indicator regressors, the last over four observations: dof 3 on
        # a lattice of D = 3 axes, where E[EC] of a t field does not fall with height
        low_dof = tmp_path / "low_dof.csv"
        low_dof.write_text(",".join(f"r{i}" for i in range(n_obs - 3)) + "\n" + "".join(
            ",".join("1" if j == min(i, n_obs - 4) else "0" for j in range(n_obs - 3)) + "\n"
            for i in range(n_obs)))
        low_dof_contrast = tmp_path / "low_dof_contrast.csv"
        low_dof_contrast.write_text(",".join(["1"] + ["0"] * (n_obs - 4)) + "\n")
        malformed = {}  # design files, bad in their last data row or (wide) in every row
        for name, text in [("nan", "mean" + "\n1" * (n_obs - 1) + "\nnan\n"),
                           ("inf", "mean" + "\n1" * (n_obs - 1) + "\ninf\n"),
                           ("short", "a,b" + "\n1,0" * (n_obs - 1) + "\n1\n"),
                           ("wide", "mean" + "\n1,0" * n_obs + "\n")]:
            malformed[name] = tmp_path / f"{name}.csv"
            malformed[name].write_text(text)
        for files, bad, message in [
                ((design, contrast), ["--smooth", "2,x"], "--smooth"),
                ((design, contrast), ["--window", "3:x"], "--window"),
                ((design, contrast), ["--window", "9:3"], "empty time window"),
                ((design, contrast), ["--window", "5:5"], "--window 5:5 holds one time bin"),
                ((design, contrast), ["--window", "24:30", "--smooth", "2"],
                 "empty time window"),
                ((design, long_contrast), [], "contrast length"),
                ((twins, long_contrast), [], "not estimable"),
                ((saturated, saturated_contrast), [], "degrees of freedom"),
                ((design, zero_contrast), [], f"{zero_contrast}: an all-zero contrast"),
                ((low_dof, low_dof_contrast), [], "design dof 3: a t field on D = 3 axes needs dof > D"),
                ((malformed["nan"], contrast), [],
                 f"{malformed['nan']}: data row {n_obs} holds a non-finite entry: ['nan']"),
                ((malformed["inf"], contrast), [],
                 f"{malformed['inf']}: data row {n_obs} holds a non-finite entry: ['inf']"),
                ((malformed["short"], long_contrast), [],
                 f"{malformed['short']}: data row {n_obs} holds 1 entries for the header's 2"),
                ((malformed["wide"], contrast), [],
                 f"{malformed['wide']}: data row 1 holds 2 entries for the header's 1")]:
            assert main(["analyze", str(ds), *map(str, files),
                         "-o", str(tmp_path / "bad"), *bad]) == 2
            assert message in capsys.readouterr().err
        assert len(loads) == len(fits) == 0  # bad input exits before the data are read
        assert main(["analyze", str(ds), str(design), str(contrast),
                     "-o", str(tmp_path / "o")]) == 0
        assert len(loads) == len(fits) == len(normalizations) == 1

    def test_public_functions_run_on_the_calling_thread(self, effect_dataset, tmp_path,
                                                        monkeypatch, workers):
        # wrap every public function in every topostat namespace that binds it,
        # and Dataset.load, as the benchmark's tracer does: its span stack is
        # not thread-safe, and worker time must count as the caller's
        threads = []

        def recorded(name, func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                threads.append((name, threading.get_ident()))
                return func(*args, **kwargs)
            return wrapper

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("topostat.")}
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                wrapped = recorded(f"{modname}.{attr}", obj)
                for other in [topostat, *modules.values()]:
                    for bound, value in list(vars(other).items()):
                        if value is obj:
                            monkeypatch.setattr(other, bound, wrapped)
        monkeypatch.setattr(topostat.dataset.Dataset, "load",
                            recorded("Dataset.load", topostat.dataset.Dataset.load))
        ds, design, contrast = effect_dataset
        with workers(3):
            assert main(["analyze", str(ds), str(design), str(contrast), "-o",
                         str(tmp_path / "o"), "--smooth", "3", "--window", "4:20"]) == 0
            assert _parallel._pool is not None  # the passes did run on workers
        names = {name for name, _ in threads}
        assert {"topostat.preproc.gaussian_smooth", "topostat.lkc.lattice_smoothness",
                "Dataset.load"} <= names
        assert {ident for _, ident in threads} == {threading.get_ident()}

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
        for top_level in ("5", "[1, 2]", "null"):
            cfg.write_text(top_level)
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
        ({"fwhm": "inf"}, "fwhm"),
        ({"fwhm": [4.0, float("nan")]}, "fwhm"),
        ({"alpha": None}, "alpha"),
        ({"alpha": True}, "alpha"),
        ({"alpha": "0.05"}, "alpha"),
        ({"thresholds": None}, "thresholds"),
        ({"thresholds": [1, None]}, "thresholds"),
        ({"thresholds": [2.0, False]}, "thresholds"),
        ({"thresholds": 2.5}, "thresholds"),
        ({"thresholds": [10 ** 400]}, "thresholds"),
        ({"fwhm": [10 ** 400]}, "fwhm"),
        ({"field": "student_t", "n_subjects": 10 ** 400}, "n_subjects"),
        ({"dims": 5}, "dims"),
        ({"field": "student_t", "dims": []}, "dims"),
        ({"fwhm": "abc"}, "fwhm"),
        ({"fwhm": None}, "fwhm"),
        ({"fwhm": True}, "fwhm"),
        ({"fwhm": [4.0, False]}, "fwhm"),
    ])
    def test_bad_config_exits_2_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                overrides, key):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, **overrides)
        draws = log_draws(monkeypatch, tmp_path / "draws.txt")
        out = tmp_path / "r.json"
        assert main(["simulate", str(cfg), "-o", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not draws.exists()
        assert not out.exists()

    @pytest.mark.parametrize("field", ["gaussian", "student_t"])
    def test_report_is_the_library_report(self, tmp_path, field):
        # the command writes mc_calibrate's report as it is, less its two
        # counts and with the config added, so the two cannot drift apart
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, field=field, n_subjects=4)
        out = tmp_path / "r.json"
        assert main(["simulate", str(cfg), "-o", str(out)]) == 0
        raw = json.loads(cfg.read_text())
        want = topostat.simulate.mc_calibrate(SimConfig.from_dict(raw), raw["thresholds"],
                                              raw["alpha"])
        del want["n_exceed"], want["n_realizations"]
        want["config"] = {"dims": [24, 24], "fwhm": [4.0, 4.0], "n_realizations": 2,
                          "seed": 9, "field": field, "n_subjects": 4}
        assert json.loads(out.read_text()) == want

    @pytest.mark.parametrize("field,threshold_calls", [("student_t", 3), ("gaussian", 1)])
    def test_each_realization_drawn_and_fitted_once(self, tmp_path, monkeypatch,
                                                    field, threshold_calls):
        cfg = tmp_path / "cfg.json"
        self._write_config(cfg, field=field, n_subjects=4, n_realizations=3)
        draws = log_draws(monkeypatch, tmp_path / "draws.txt")
        fits = count_calls(monkeypatch, topostat.glm, "fit")
        thresholds = count_calls(monkeypatch, topostat.ecd, "corrected_threshold")
        assert main(["simulate", str(cfg), "-o", str(tmp_path / "r.json")]) == 0
        assert len(draws.read_text().splitlines()) == 3
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


@pytest.mark.parametrize("command,extra,option", [
    ("analyze", ["--alpha", "7"], "--alpha"),
    ("analyze", ["--smooth", "nan"], "--smooth"),
    ("analyze", ["--smooth", "inf"], "--smooth"),
    ("analyze", [], "contrast entries"),
    ("smooth", ["--fwhm", "nan"], "--fwhm"),
    ("smooth", ["--fwhm", "inf"], "--fwhm"),
    ("tf", ["--freqs", "30:5"], "--freqs"),
    ("tf", ["--srate", "0"], "--srate"),
    ("tf", ["--srate", "-100"], "--srate"),
    ("analyze", ["--smooth", "2,x"], "--smooth"),
    ("smooth", ["--fwhm", ""], "--fwhm"),
    ("tf", ["--freqs", "a:5"], "--freqs"),
], ids=["alpha-7", "smooth-nan", "smooth-inf", "contrast-nan", "fwhm-nan", "fwhm-inf",
        "freqs-30:5", "srate-0", "srate--100", "smooth-2,x", "fwhm-empty", "freqs-a:5"])
def test_bad_numeric_input_exits_2_without_output(effect_dataset, tmp_path, capsys,
                                                  command, extra, option):
    ds, design, contrast = effect_dataset
    if option == "contrast entries":
        contrast.write_text("nan\n")
    signal = tmp_path / "signal"
    write_dataset(signal, np.zeros((1, 2000)), axes=("time",), units=("ms",))
    inputs = {"analyze": [ds, design, contrast], "smooth": [ds], "tf": [signal]}[command]
    out = tmp_path / "o"
    assert main([command, *map(str, inputs), "-o", str(out), *extra]) == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("widths,error", [
    ([2.5], None),
    ([2.5, 2.5], "needs one width or one per axis"),
    ([2.5, float("nan"), 2.5], "must be finite and nonnegative"),
    ([float("inf")], "must be finite and nonnegative"),
    ([True], "expects numbers"),
    ([2.5, True, 2.5], "expects numbers"),
], ids=["one-for-every-axis", "wrong-count", "nan", "inf", "bool", "bool-in-list"])
@pytest.mark.parametrize("entry,name", [("analyze", "--smooth"), ("smooth", "--fwhm"),
                                        ("SimConfig", "fwhm"), ("gaussian_smooth", "fwhm")])
def test_one_width_rule_at_every_entry(effect_dataset, tmp_path, capsys, widths, error,
                                       entry, name):
    # one width serves every axis, and each error names the option or key
    ds, design, contrast = effect_dataset
    stack = read_dataset(ds).load().reshape(12, 12, 12, 24)
    mask = np.ones((12, 12, 24), dtype=bool)

    def smoothed(fwhm, out):
        if entry == "SimConfig":
            return SimConfig(dims=(12, 12, 24), fwhm=fwhm, n_realizations=1, seed=0).fwhm
        if entry == "gaussian_smooth":
            return topostat.preproc.gaussian_smooth(stack.copy(), fwhm, mask)
        inputs = [ds, design, contrast] if entry == "analyze" else [ds]
        rc = main([entry, *map(str, inputs), "-o", str(out), name, ",".join(map(str, fwhm))])
        if rc:
            assert rc == 2
            raise ValueError(capsys.readouterr().err)
        if entry == "analyze":
            return json.loads((out / "results.json").read_text())["inputs"]["smooth_fwhm"]
        return read_dataset(out).load()

    if error:
        with pytest.raises(ValueError, match=f"{name} {error}"):
            smoothed(widths, tmp_path / "o")
        assert not (tmp_path / "o").exists()
    else:
        assert np.array_equal(smoothed(widths, tmp_path / "a"),
                              smoothed([2.5] * 3, tmp_path / "b"))


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is reached by no subcommand, scipy.spatial only by
    # interpolate_to_grid; scipy.sparse (csgraph) is imported where it is used,
    # which keeps about 75 ms out of every command's start-up
    src = str(Path(topostat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, topostat.cli; "
            "print([m in sys.modules for m in ('scipy.stats', 'scipy.spatial', 'scipy.sparse')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"
