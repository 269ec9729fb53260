import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polariton2dcs
from polariton2dcs import Axis, MalformedGrid, SpectrumGrid
from polariton2dcs.cli import load_grid, main, write_csv, write_json_grid
from polariton2dcs.peaks import _mean_3x3, classify_2d, find_peaks_1d, find_peaks_2d, grid_peak_report

SPECIAL = [0.0, -0.0, 5e-324, -1e-320, 1.7976931348623157e308, np.inf, -np.inf, np.nan]


def lorentzian(x, center, width):
    return width / (width**2 + (x - center) ** 2)


def reference_csv(grid: SpectrumGrid) -> str:
    """Reference for the streamed writer: the grid text built one f-string per value."""
    lines = [f"# signal={grid.signal}"]
    if grid.t_wait is not None:
        lines.append(f"# t_wait={grid.t_wait:.17g}")
    lines += [f"# {key}={grid.metadata[key]}" for key in sorted(grid.metadata)]
    if grid.axis2 is None:
        lines.append("omega,value")
        for omega, val in zip(grid.axis1.values(), grid.values):
            lines.append(f"{omega:.17g},{val.real:.17g}")
    else:
        lines.append("omega1,omega3,re,im")
        for u, w1 in enumerate(grid.axis1.values()):
            for t, w3 in enumerate(grid.axis2.values()):
                val = grid.values[u, t]
                lines.append(f"{w1:.17g},{w3:.17g},{val.real:.17g},{val.imag:.17g}")
    return "\n".join(lines) + "\n"


def reference_json(grid: SpectrumGrid) -> str:
    """Reference for the per-key writer: the whole grid record through one ``json.dumps``."""
    def axis(ax):
        return None if ax is None else {"start": ax.start, "stop": ax.stop, "count": ax.count,
                                        "offset": ax.offset, "label": ax.label}

    doc = {"signal": grid.signal, "axis1": axis(grid.axis1), "axis2": axis(grid.axis2),
           "t_wait": grid.t_wait, "values_re": np.real(grid.values).tolist(),
           "values_im": np.imag(grid.values).tolist(), "metadata": grid.metadata}
    return json.dumps(doc, sort_keys=True) + "\n"


def bits(values: np.ndarray) -> np.ndarray:
    """Bit patterns of the real and imaginary parts, so -0.0 and nan compare exactly."""
    return np.ascontiguousarray(values).view(np.int64)


class TestFindPeaks1D:
    def test_constant_grid_has_no_peaks(self):
        x = np.linspace(0.0, 10.0, 101)
        assert find_peaks_1d(x, np.ones_like(x)) == []

    def test_lorentzian_position_refined(self):
        x = np.linspace(-50.0, 50.0, 301)
        v = lorentzian(x, 3.7, 4.0)
        peaks = find_peaks_1d(x, v)
        assert len(peaks) == 1
        assert abs(peaks[0].refined - 3.7) < 0.1
        assert peaks[0].height == pytest.approx(0.25, rel=0.02)

    def test_relative_height_floor(self):
        x = np.linspace(0.0, 100.0, 501)
        v = lorentzian(x, 20.0, 2.0) + 0.01 * lorentzian(x, 80.0, 2.0)
        assert len(find_peaks_1d(x, v, min_rel_height=0.05)) == 1
        assert len(find_peaks_1d(x, v, min_rel_height=0.0)) == 2

    def test_sorted_by_height(self):
        x = np.linspace(0.0, 100.0, 501)
        v = 0.5 * lorentzian(x, 20.0, 2.0) + lorentzian(x, 70.0, 2.0)
        peaks = find_peaks_1d(x, v)
        assert peaks[0].height > peaks[1].height


class TestFindPeaks2D:
    def test_constant_grid_has_no_peaks(self):
        v = np.ones((40, 40))
        ax = np.linspace(0.0, 1.0, 40)
        assert find_peaks_2d(ax, ax, v) == []

    def test_classification_tags(self):
        assert classify_2d(17313.0, 14913.0, 1200.0, 40.0) == ("cross", 2)
        assert classify_2d(14313.0, 14320.0, 1200.0, 40.0) == ("diagonal", 0)
        assert classify_2d(17913.0, 14913.0, 1200.0, 40.0) == ("coherence", None)

    def test_synthetic_cross_peak(self):
        ax1 = np.linspace(14000.0, 18000.0, 161)
        ax2 = np.linspace(14000.0, 18000.0, 161)
        g1, g2 = np.meshgrid(ax1, ax2, indexing="ij")
        v = (lorentzian(g1, 17000.0, 60.0) * lorentzian(g2, 15800.0, 60.0)
             + 0.5 * lorentzian(g1, 15000.0, 60.0) * lorentzian(g2, 15000.0, 60.0))
        peaks = find_peaks_2d(ax1, ax2, v, omega_v=1200.0, min_rel_height=0.02)
        assert len(peaks) == 2
        top = peaks[0]
        assert abs(top.refined1 - 17000.0) < 15.0
        assert abs(top.refined3 - 15800.0) < 15.0
        assert top.classification == "cross" and top.k == 1
        assert peaks[1].classification == "diagonal"


class TestSmoothing:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 7), (40, 31)])
    def test_matches_scipy_uniform_filter(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        mag = np.abs(np.random.default_rng(shape[0]).standard_normal(shape)) * 1e3
        expected = ndimage.uniform_filter(mag, size=3, mode="nearest")
        assert np.max(np.abs(_mean_3x3(mag) - expected)) <= 1e-15 * np.max(mag)

    def test_1d_smoothing_has_zeros_past_the_ends(self):
        # x = 1 is a maximum of the smoothed magnitude only with zeros past x = 0
        peaks = find_peaks_1d(np.arange(6.0), [10, 9, 1, 0, 0, 0])
        assert [p.omega for p in peaks] == [1.0]

    def test_2d_smoothing_repeats_the_edges(self):
        # a ridge along the omega1 = 0 edge, falling inward, and a bump at (6, 4): with
        # zeros past the edge (1, 2) would be a maximum too; repeated edges keep the bump alone
        values = np.outer([10, 9, 1, 0, 0, 0, 0, 0, 0.0], [0, 1, 3, 1, 0, 0, 0.0])
        values[5:8, 3:6] = np.outer([1, 2, 1], [1, 2, 1])
        peaks = find_peaks_2d(np.arange(9.0), np.arange(7.0), values)
        assert [(p.omega1, p.omega3) for p in peaks] == [(6.0, 4.0)]

    def test_cli_import_leaves_scipy_out(self):
        script = "import sys, polariton2dcs.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]


class TestGridIO:
    def make_grid(self, two_dimensional):
        ax1 = Axis(100.0, 200.0, 6, offset=50.0, label="omega1")
        if two_dimensional:
            ax2 = Axis(300.0, 400.0, 5, offset=50.0, label="omega3")
            values = (np.arange(30, dtype=float) + 1j * np.arange(30)).reshape(6, 5)
            return SpectrumGrid("twod", ax1, ax2, 250.0, values, {"omega_v": 1200.0})
        values = np.linspace(0.0, 1.0, 6).astype(complex)
        return SpectrumGrid("absorption", ax1, None, None, values, {"omega_v": 1200.0})

    def make_special_grid(self, two_dimensional):
        """A grid holding signed zeros, subnormals, the largest float, infinities and nan."""
        ax1 = Axis(-1.0 / 3.0, 1e5 / 7.0, 8, offset=16113.0, label="omega1")
        re = np.array(SPECIAL)
        if two_dimensional:
            ax2 = Axis(0.1, 0.7, 8, offset=16113.0, label="omega3")
            values = np.empty((8, 8), dtype=complex)
            values.real = re[:, None]
            values.imag = re[::-1][None, :]
            return SpectrumGrid("twod", ax1, ax2, 1.0 / 3.0, values, {"omega_v": 1200.0})
        return SpectrumGrid("absorption", ax1, None, None, re.astype(complex), {"phase": -0.0})

    @pytest.mark.parametrize("two_dimensional", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip(self, tmp_path, two_dimensional, fmt):
        grid = self.make_grid(two_dimensional)
        path = tmp_path / f"grid.{fmt}"
        (write_csv if fmt == "csv" else write_json_grid)(path, grid)
        loaded = load_grid(path)
        assert loaded.signal == grid.signal
        assert loaded.axis1.count == grid.axis1.count
        assert np.array_equal(loaded.axis1.values(), grid.axis1.values())
        if two_dimensional:
            assert np.array_equal(loaded.values, grid.values)
            assert loaded.t_wait == 250.0
        else:
            assert np.array_equal(loaded.values.real, grid.values.real)

    def make_writer_grids(self, two_dimensional):
        """Grids for the byte comparison with :func:`reference_csv`.

        Besides the small and special grids, with metadata holding ``%`` and
        ``{}``: in 1D, 2000 points; in 2D, a grid with more rows than columns
        and a 300 x 300 grid.  The values are seeded random numbers of every
        magnitude, with the special values mixed in."""
        meta = {"note": "100% {} {0} %s %% {:.17g}", "omega_v": 1200.0}
        rng = np.random.default_rng(2024)
        big = rng.standard_normal(90000) * 10.0 ** rng.uniform(-300.0, 300.0, 90000)
        big[rng.choice(big.size, 4 * len(SPECIAL), replace=False)] = SPECIAL * 4
        big[:len(SPECIAL)] = SPECIAL
        grids = [self.make_grid(two_dimensional), self.make_special_grid(two_dimensional)]
        if not two_dimensional:
            return grids + [SpectrumGrid("absorption", Axis(13000.0, 19000.0, 2000, 16113.0),
                                         None, None, big[:2000].astype(complex), meta)]
        tall = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        square = np.empty((300, 300), dtype=complex)   # 1j * inf would put a nan in the real part
        square.real = big.reshape(300, 300)
        square.imag = big[::-1].reshape(300, 300)
        return grids + [
            SpectrumGrid("twod", Axis(-7.5, 1e4 / 3.0, 7, 16113.0, "omega1"),
                         Axis(0.25, 1.0 / 7.0 + 1.0, 3, 16113.0, "omega3"), 0.0, tall, meta),
            SpectrumGrid("twod", Axis(13000.0, 19000.0, 300, 16113.0, "omega1"),
                         Axis(12000.0, 19000.0, 300, 16113.0, "omega3"), 250.0, square, meta)]

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_csv_bytes_match_per_value_writer(self, tmp_path, two_dimensional):
        for grid in self.make_writer_grids(two_dimensional):
            path = tmp_path / "grid.csv"
            write_csv(path, grid)
            assert path.read_text() == reference_csv(grid)

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_json_bytes_match_whole_document_writer(self, tmp_path, two_dimensional):
        for grid in self.make_writer_grids(two_dimensional):
            path = tmp_path / "grid.json"
            write_json_grid(path, grid)
            assert path.read_text() == reference_json(grid)

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_csv_roundtrip_is_exact_for_special_values(self, tmp_path, two_dimensional):
        grid = self.make_special_grid(two_dimensional)
        path = tmp_path / "grid.csv"
        write_csv(path, grid)
        loaded = load_grid(path)
        assert np.array_equal(loaded.axis1.values(), grid.axis1.values())
        if two_dimensional:
            assert np.array_equal(loaded.axis2.values(), grid.axis2.values())
            assert np.array_equal(bits(loaded.values), bits(grid.values))
        else:
            assert np.array_equal(bits(loaded.values.real), bits(grid.values.real))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedGrid):
            load_grid(tmp_path / "nope.csv")

    def test_garbage_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,grid\n1,2\n")
        with pytest.raises(MalformedGrid):
            load_grid(bad)

    def test_directory_is_an_io_error(self, tmp_path, capsys):
        with pytest.raises(OSError):
            load_grid(tmp_path)
        assert main(["peaks", str(tmp_path)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_garbage_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"signal\": \"absorption\"}")
        with pytest.raises(MalformedGrid):
            load_grid(bad)

    def test_json_that_is_not_an_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(MalformedGrid):
            load_grid(bad)

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_every_writer_grid_reads_back_to_the_same_floats(self, tmp_path, two_dimensional):
        for grid in self.make_writer_grids(two_dimensional):
            path = tmp_path / "grid.csv"
            write_csv(path, grid)
            loaded = load_grid(path)
            assert np.array_equal(loaded.axis1.values(), grid.axis1.values())
            if two_dimensional:
                assert np.array_equal(loaded.axis2.values(), grid.axis2.values())
            values = loaded.values if two_dimensional else loaded.values.real
            assert np.array_equal(bits(values), bits(grid.values if two_dimensional
                                                     else grid.values.real))

    def rewrite_rows(self, path, change):
        """Rewrite the data rows of a csv grid file through ``change`` (a list to a list)."""
        lines = path.read_text().splitlines()
        at = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
        path.write_text("\n".join(lines[:at] + change(lines[at:])) + "\n")

    def assert_refused(self, path, capsys, match):
        with pytest.raises(MalformedGrid, match=match):
            load_grid(path)
        assert main(["peaks", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: "), captured

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_shuffled_rows_are_refused(self, tmp_path, capsys, two_dimensional):
        path = tmp_path / "grid.csv"
        write_csv(path, self.make_grid(two_dimensional))
        # the first and the last row stay, so the axis ends are those of the written grid
        size = 30 if two_dimensional else 6
        order = [0, *(1 + np.random.default_rng(7).permutation(size - 2)), size - 1]
        self.rewrite_rows(path, lambda rows: [rows[k] for k in order])
        self.assert_refused(path, capsys, "grid.csv")

    @pytest.mark.parametrize("change", [
        lambda rows: rows[::-1],                                             # omega1 descending
        lambda rows: [rows[5 * (k % 6) + k // 6] for k in range(30)],        # omega3-major
        lambda rows: [rows[5 * (k // 5) + 4 - k % 5] for k in range(30)],    # omega3 descending
        lambda rows: rows[:5] + [rows[5 + (k + 1) % 5] for k in range(5)] + rows[10:],
    ])
    def test_2d_rows_out_of_the_writers_order_are_refused(self, tmp_path, capsys, change):
        path = tmp_path / "grid.csv"
        write_csv(path, self.make_grid(True))
        self.rewrite_rows(path, change)
        self.assert_refused(path, capsys, "grid.csv")

    @pytest.mark.parametrize("two_dimensional, column", [(False, 0), (True, 0), (True, 1)])
    @pytest.mark.parametrize("shift, refused", [(0.01, True), (1e-9, False)])
    def test_axis_column_must_be_uniform(self, tmp_path, capsys, two_dimensional, column,
                                         shift, refused):
        # move every value of the column's second axis point by a fraction of its step
        path = tmp_path / "grid.csv"
        write_csv(path, self.make_grid(two_dimensional))
        second = {0: "120", 1: "325"}[column]
        moved = repr(float(second) + shift * (20.0 if column == 0 else 25.0))

        def change(rows):
            cells = [row.split(",") for row in rows]
            for row in cells:
                if row[column] == second:
                    row[column] = moved
            return [",".join(row) for row in cells]

        self.rewrite_rows(path, change)
        if refused:
            label = "omega" if not two_dimensional else ("omega1", "omega3")[column]
            self.assert_refused(path, capsys, f"the {label} column is not a uniform axis")
        else:
            loaded, grid = load_grid(path), self.make_grid(two_dimensional)
            assert np.array_equal(loaded.axis1.values(), grid.axis1.values())
            if two_dimensional:
                assert np.array_equal(loaded.axis2.values(), grid.axis2.values())

    def run_peaks(self, path, *args):
        """``peaks`` on ``path`` in a fresh interpreter that turns every warning into an error."""
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "polariton2dcs.cli", "peaks", str(path), *args],
            capture_output=True, text=True, env=env, timeout=120)

    def make_non_finite_grid(self, two_dimensional, specials):
        """sin over [0, 10] at 50 points, ``specials`` at indices 10, 20, ... (2D: on the diagonal)."""
        x = np.linspace(0.0, 10.0, 50)
        at = [10 * (k + 1) for k in range(len(specials))]
        ax1 = Axis(0.0, 10.0, 50, label="omega1")
        if not two_dimensional:
            values = np.sin(x)
            values[at] = specials
            return SpectrumGrid("absorption", ax1, None, None, values.astype(complex), {})
        values = np.zeros((50, 50), dtype=complex)
        values.imag = np.outer(np.sin(x), np.sin(x))
        values.imag[at, at] = specials
        return SpectrumGrid("twod", ax1, Axis(0.0, 10.0, 50, label="omega3"), 0.0, values, {})

    @pytest.mark.parametrize("two_dimensional", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peaks_refuses_a_grid_with_a_nan_and_an_infinity(self, tmp_path, two_dimensional, fmt):
        # the smoothing spread them to their neighbours and the height floor became nan:
        # in 1D, peaks at 4.69, 7.76 and 9.80 (height 0.41) under --min-height 0.5, exit 0
        path = tmp_path / f"grid.{fmt}"
        (write_csv if fmt == "csv" else write_json_grid)(
            path, self.make_non_finite_grid(two_dimensional, [np.nan, np.inf]))
        result = self.run_peaks(path, "--min-height", "0.5")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"config error: {path}: the values hold a NaN or an infinity\n"

    @pytest.mark.parametrize("text", [
        "", "# signal=absorption\n", "# signal=absorption\nomega,re,im\n",
        "omega,re,im\n\n\n", "omega,re,im\n# a comment\n\n", "omega,re,im\r\n\r\n# note\r\n",
    ])
    def test_csv_without_data_rows_exits_2(self, tmp_path, text):
        # np.loadtxt warns "input contained no data" on rows it skips whole: a body of
        # comments alone ended in that UserWarning's traceback under -W error (exit 1)
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode())
        result = self.run_peaks(path)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"config error: {path}: no data rows\n")

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_csv_read_from_a_pipe(self, tmp_path, capsys):
        # the reader streams the rows and never seeks, so a pipe reads like the file
        path = tmp_path / "grid.csv"
        write_csv(path, self.make_grid(True))
        assert main(["peaks", str(path)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "polariton2dcs.cli", "peaks", "/dev/stdin"],
            input=path.read_text(), capture_output=True, text=True, env=env, timeout=120)
        assert (result.returncode, result.stdout) == (0, capsys.readouterr().out), result.stderr

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    def test_peaks_refuses_each_special_value(self, tmp_path, capsys, special):
        path = tmp_path / "grid.csv"
        write_csv(path, self.make_non_finite_grid(False, [special]))
        assert main(["peaks", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: {path}: "
                                           "the values hold a NaN or an infinity\n")
        write_csv(path, self.make_non_finite_grid(False, []))
        assert main(["peaks", str(path)]) == 0

    @pytest.mark.parametrize("two_dimensional", [False, True])
    def test_integral_json_count_reads_as_an_integer(self, tmp_path, capsys, two_dimensional):
        # a count of 50.0 reached np.linspace and ended in a TypeError traceback (exit 1)
        path = tmp_path / "grid.json"
        write_json_grid(path, self.make_non_finite_grid(two_dimensional, []))
        assert main(["peaks", str(path)]) == 0
        report = capsys.readouterr().out
        doc = json.loads(path.read_text())
        for key in ("axis1", "axis2") if two_dimensional else ("axis1",):
            doc[key]["count"] = 50.0
        path.write_text(json.dumps(doc))
        result = self.run_peaks(path)
        assert (result.returncode, result.stdout, result.stderr) == (0, report, "")
        assert json.loads(report)

    @pytest.mark.parametrize("two_dimensional, key, value, shown", [
        (False, "axis1", 50.5, "axis1.count must be an integer, got 50.5"),
        (True, "axis2", "50", "axis2.count must be an integer, got '50'"),
        (True, "axis1", True, "axis1.count must be an integer, got True"),
        # a list reached metadata.get in the 2D peak report: an AttributeError (exit 1)
        (True, "metadata", [1200.0], "metadata must be an object, got [1200.0]"),
        (False, "metadata", "omega_v=1200", "metadata must be an object, got 'omega_v=1200'"),
    ])
    def test_peaks_refuses_a_malformed_json_record(self, tmp_path, two_dimensional, key, value,
                                                   shown):
        path = tmp_path / "grid.json"
        write_json_grid(path, self.make_non_finite_grid(two_dimensional, []))
        doc = json.loads(path.read_text())
        if key == "metadata":
            doc[key] = value
        else:
            doc[key]["count"] = value
        path.write_text(json.dumps(doc))
        result = self.run_peaks(path)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"config error: {path}: {shown}\n")

    @pytest.mark.parametrize("fmt, value, shown", [
        # classify_2d divided by it: a TypeError, a ZeroDivisionError or a ValueError (exit 1)
        ("csv", "abc", "'abc'"), ("csv", "0", "0"), ("csv", "-1200", "-1200"),
        ("csv", "inf", "inf"), ("json", "1200", "'1200'"), ("json", math.nan, "nan"),
        ("json", True, "True"), pytest.param("json", 10 ** 400, str(10 ** 400), id="json-1e400"),
    ])
    def test_peaks_refuses_a_2d_omega_v_that_is_not_a_positive_finite_number(
            self, tmp_path, fmt, value, shown):
        path = tmp_path / f"grid.{fmt}"
        grid = self.make_non_finite_grid(True, [])
        if fmt == "csv":
            grid.metadata["omega_v"] = value   # written as it is, read back by the csv rules
            write_csv(path, grid)
        else:
            write_json_grid(path, grid)
            doc = json.loads(path.read_text())
            doc["metadata"]["omega_v"] = value
            path.write_text(json.dumps(doc))
        result = self.run_peaks(path)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"config error: {path}: omega_v must be a positive finite number, got {shown}\n")

    def test_1d_grid_ignores_its_omega_v(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        grid = self.make_non_finite_grid(False, [])
        grid.metadata["omega_v"] = "abc"
        write_csv(path, grid)
        assert main(["peaks", str(path)]) == 0

    @pytest.mark.parametrize("two_dimensional, keys", [
        (False, ["omega", "refined", "height", "classification"]),
        (True, ["omega1", "omega3", "refined1", "refined3", "height", "classification", "k"]),
    ])
    def test_report_entries_are_the_peak_records(self, tmp_path, two_dimensional, keys):
        # the key order is part of the bytes that `peaks` prints
        ax1 = Axis(14000.0, 18000.0, 161, label="omega1")
        x = ax1.values()
        if two_dimensional:
            g1, g3 = np.meshgrid(x, x, indexing="ij")
            mag = (lorentzian(g1, 17000.0, 60.0) * lorentzian(g3, 15800.0, 60.0)
                   + 0.5 * lorentzian(g1, 15000.0, 60.0) * lorentzian(g3, 15000.0, 60.0))
            grid = SpectrumGrid("twod", ax1, Axis(14000.0, 18000.0, 161, label="omega3"),
                                0.0, 1j * mag, {"omega_v": 1200.0})
            found = find_peaks_2d(x, x, mag, omega_v=1200.0, min_rel_height=0.01)
        else:
            mag = lorentzian(x, 15000.0, 60.0) + 0.5 * lorentzian(x, 17000.0, 60.0)
            grid = SpectrumGrid("absorption", ax1, None, None, mag.astype(complex), {})
            found = find_peaks_1d(x, mag, 0.01)
        path = tmp_path / "grid.csv"
        write_csv(path, grid)
        report = grid_peak_report(load_grid(path))
        assert [list(entry) for entry in report] == [keys, keys]
        assert report == [dataclasses.asdict(p) for p in found]

    def test_peak_report_dicts(self, tmp_path):
        ax = Axis(0.0, 100.0, 201)
        x = ax.values()
        grid = SpectrumGrid("absorption", ax, None, None,
                            lorentzian(x, 40.0, 3.0).astype(complex), {})
        path = tmp_path / "grid.csv"
        write_csv(path, grid)
        report = grid_peak_report(load_grid(path))
        assert len(report) == 1
        assert report[0]["omega"] == pytest.approx(40.0, abs=0.5)
