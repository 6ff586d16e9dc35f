"""Harness and CLI tests: config schema, reports, determinism, exit codes."""
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from mthorder import cli, harness
from mthorder import inequalities as iq
from mthorder.numerics import EstimateWithError

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def _verdict(name, lhs, rhs, sigma=0.0, metadata=None):
    return iq.make_verdict(name, EstimateWithError(lhs, sigma, 0),
                           EstimateWithError(rhs, 0.0, 0), metadata=metadata)


def _write(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


_BODY = {"kind": "cube", "dim": 2, "halfwidth": 1.0}
_FUNC = {"profile": "exponential", "body": {"kind": "simplex", "dim": 1}}


class TestConfigSchema:
    def test_builtin_config(self):
        cfg = harness.validate_config({"name": "run-mellin",
                                       "experiment": "mellin", "seed": 3})
        assert cfg.experiment == "mellin"
        assert cfg.check is None
        assert cfg.seed == 3
        assert cfg.samples is None

    def test_check_config_keeps_params(self):
        raw = {"name": "one", "check": "rs-body", "body": _BODY, "m": 2,
               "samples": 500}
        cfg = harness.validate_config(raw)
        assert cfg.check == "rs-body"
        assert cfg.params["m"] == 2
        assert cfg.samples == 500
        assert cfg.raw == raw

    @pytest.mark.parametrize("raw,fragment", [
        ({}, "name"),
        ({"name": "x"}, "exactly one"),
        ({"name": "x", "experiment": "mellin", "check": "rs-body"},
         "exactly one"),
        ({"name": "x", "experiment": "nope"}, "unknown experiment"),
        ({"name": "x", "experiment": "mellin", "p_grid": [1]},
         "unknown fields"),
        ({"name": "x", "check": "nope"}, "unknown check"),
        ({"name": "x", "check": "rs-body", "body": _BODY, "m": 1, "wat": 0},
         "unknown fields"),
        ({"name": "x", "check": "rs-body", "body": _BODY}, "missing"),
        ({"name": "x", "check": "rs-body", "body": _BODY, "m": 0}, ">= 1"),
        ({"name": "x", "check": "rs-body", "body": _BODY, "m": True},
         "integer"),
        ({"name": "x", "check": "rs-body", "body": _BODY, "m": 1,
          "seed": 1.5}, "integer"),
        ({"name": "x", "check": "chain", "m": 1, "p_grid": [1.0],
          "body": _BODY, "function": _FUNC}, "exactly one"),
        ({"name": "x", "check": "chain", "m": 1, "p_grid": [],
          "body": _BODY}, "p_grid"),
        ({"name": "x", "check": "chain", "m": 1, "p_grid": [-2.0],
          "body": _BODY}, "p_grid"),
        ({"name": "x", "check": "chain", "m": 1, "p_grid": [1.0],
          "body": _BODY, "directions": 0}, "directions"),
        ({"name": "x", "check": "rs-multi", "functions": [_FUNC]},
         "at least two"),
        ({"name": "x", "check": "tangent-bound", "function": _FUNC, "m": 1,
          "points": []}, "points"),
        ({"name": "x", "check": "rs-single", "function": "exp", "m": 1},
         "JSON object"),
        ({"name": "x", "check": "zhang-body", "m": 2, "body": _BODY,
          "directions": [[1.0, 0.0, 0.0, 0.0]]}, "for chain"),
        ({"name": "x", "check": "zhang-fn", "m": 1, "function": _FUNC,
          "nodes": 64}, "unknown fields"),
    ])
    def test_rejects_bad_configs(self, raw, fragment):
        with pytest.raises(harness.ConfigError, match=fragment):
            harness.validate_config(raw)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(harness.ConfigError, match="not found"):
            harness.load_config(tmp_path / "absent.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(harness.ConfigError, match="valid JSON"):
            harness.load_config(path)

    def test_bad_body_kind_is_config_error(self, tmp_path):
        cfg = harness.validate_config(
            {"name": "x", "check": "rs-body",
             "body": {"kind": "pentagon", "dim": 2}, "m": 1})
        with pytest.raises(harness.ConfigError, match="bad input spec"):
            harness.run_config(cfg)

    @pytest.mark.parametrize("raw", [
        {"check": "zhang-body", "body": {"kind": "ball", "dim": 4}, "m": 4},
        {"check": "chain", "body": {"kind": "ball", "dim": 4}, "m": 4,
         "p_grid": [1.0]},
        {"check": "tangent-bound", "m": 4, "points": [[0.1] * 16],
         "function": {"profile": "exponential",
                      "body": {"kind": "ball", "dim": 4}}},
    ])
    def test_ball_gauge_beyond_three_dimensions_is_config_error(self, raw):
        cfg = harness.validate_config({"name": "x", **raw})
        with pytest.raises(harness.ConfigError, match="n <= 3 or m <= 3"):
            harness.run_config(cfg)

    def test_zhang_body_in_space_at_m4_runs(self):
        # the Petty side needs the gauge of the 3-ball at m = 4
        cfg = harness.validate_config(
            {"name": "x", "check": "zhang-body",
             "body": {"kind": "cube", "dim": 3}, "m": 4, "directions": 200})
        verdicts = harness.run_config(cfg, threads=1)
        assert [v.name for v in verdicts] == ["zhang-body", "petty-body"]
        assert all(v.status != iq.VIOLATED for v in verdicts)


class TestCatalog:
    def test_eleven_experiments(self):
        assert len(harness.CATALOG) == 11
        criteria = sorted(e.criterion for e in harness.CATALOG.values())
        assert criteria == list(range(1, 12))

    def test_catalog_lines_ordered(self):
        lines = harness.catalog_lines()
        assert len(lines) == 11
        assert lines[0].startswith(" 1. classical-formula")
        assert lines[-1].startswith("11. zhang-petty")

    def test_run_experiment_rejects_unknown(self):
        with pytest.raises(harness.ConfigError, match="unknown experiment"):
            harness.run_experiment("nope")


class TestThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("MTHORDER_THREADS", "5")
        assert harness.resolve_threads(3) == 3

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("MTHORDER_THREADS", "3")
        assert harness.resolve_threads() == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("MTHORDER_THREADS", "many")
        with pytest.raises(harness.ConfigError):
            harness.resolve_threads()

    def test_default_positive(self, monkeypatch):
        # serial unless asked: the catalog's jobs are GIL-bound
        monkeypatch.delenv("MTHORDER_THREADS", raising=False)
        assert harness.resolve_threads() == 1


class TestJsonRendering:
    def test_clean_strips_runtimes_and_numpy(self):
        doc = {"runtime_s": 1.2,
               "value": np.float64(0.5),
               "count": np.int64(3),
               "vec": np.array([1.0, 2.0]),
               "pair": (1, 2),
               "inner": {"runtime_s": 0.1, "keep": [np.float32(1.5)]},
               "bad": math.inf}
        out = harness._clean(doc)
        assert "runtime_s" not in out and "runtime_s" not in out["inner"]
        assert out["value"] == 0.5 and isinstance(out["value"], float)
        assert out["count"] == 3 and isinstance(out["count"], int)
        assert out["vec"] == [1.0, 2.0]
        assert out["pair"] == [1, 2]
        assert out["bad"] == "inf"

    def test_render_round_trips(self):
        v = _verdict("demo", 1.0, 2.0,
                     metadata={"runtime_s": 3.0, "note": np.float64(7.0)})
        text = harness.render_verdicts_json("demo-exp", [v])
        doc = json.loads(text)
        assert doc["experiment"] == "demo-exp"
        assert doc["verdicts"][0]["status"] == iq.HOLDS
        assert "runtime_s" not in text
        assert doc["verdicts"][0]["metadata"]["note"] == 7.0


class TestSvg:
    def test_chart_one_polyline_per_series(self, tmp_path):
        path = tmp_path / "chart.svg"
        series = [("a", [0, 1, 2], [1.0, math.nan, 3.0]),
                  ("flat", [0, 1, 2], [2.0, 2.0, 2.0])]
        harness._svg_chart(path, "demo", series, x_label="i", y_label="v")
        text = path.read_text()
        assert text.startswith("<?xml")
        root = ET.parse(path).getroot()
        polys = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 2

    def test_single_point_series_is_valid(self, tmp_path):
        path = tmp_path / "point.svg"
        harness._svg_chart(path, "single", [("p", [0], [1.0])])
        root = ET.parse(path).getroot()
        assert len([e for e in root.iter()
                    if e.tag.endswith("polyline")]) == 1


class TestExitCode:
    def test_all_clear_is_zero(self):
        vs = [_verdict("a", 1.0, 2.0), _verdict("b", 1.0, 1.0)]
        assert harness.exit_code(vs) == 0

    def test_violation_is_one(self):
        vs = [_verdict("a", 1.0, 2.0), _verdict("bad", 2.0, 1.0)]
        assert vs[1].status == iq.VIOLATED
        assert harness.exit_code(vs) == 1

    def test_non_finite_side_is_numeric_failure(self):
        # the CLI maps NumericFailure to exit code 3
        job = ("nan-job", lambda: _verdict("a", math.nan, 1.0))
        with pytest.raises(harness.NumericFailure, match="nan-job"):
            harness._execute([job], threads=1)


class TestCli:
    def test_list_prints_catalog(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 11
        assert any("support-identity" in line for line in out)

    def test_run_needs_an_argument(self, capsys):
        assert cli.main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_all_rejects_config_path(self, capsys):
        assert cli.main(["run", "x.json", "--all"]) == 2

    def test_missing_config_file(self, capsys):
        assert cli.main(["run", "/nonexistent/cfg.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_field_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, {"name": "x", "check": "rs-body",
                                 "body": _BODY, "m": 1, "typo": 1})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "unknown fields" in capsys.readouterr().err

    def test_numeric_failure_exits_three_naming_job(self, tmp_path, capsys):
        # valid input whose sides overflow: sup f^m = (1e300)^2
        path = _write(tmp_path, {"name": "overflow", "check": "rs-single", "m": 2,
                                 "function": {"profile": "indicator", "body": _BODY,
                                              "amplitude": 1e300}})
        with np.errstate(over="ignore"):
            assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "rs-single" in err

    def test_unsupported_ball_gauge_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, {"name": "x", "check": "zhang-body", "m": 4,
                                 "body": {"kind": "ball", "dim": 4}})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "n <= 3 or m <= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("functions", [
        [{"profile": "indicator", "body": _BODY},
         {"profile": "indicator", "body": {"kind": "ball", "dim": 2}}],
        [{"profile": "gaussian", "body": {"kind": "ball", "dim": 2}}] * 2,
    ], ids=["square-disc", "gaussian-discs"])
    def test_rs_multi_without_exact_meeting_exits_two(self, tmp_path, capsys,
                                                     functions):
        # above one dimension the int-convolution is an exact common volume
        # of polytopes, of discs or of two balls, so these tuples are
        # outside the check's scope
        path = _write(tmp_path, {"name": "x", "check": "rs-multi",
                                 "functions": functions, "samples": 300})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rs-multi" in err

    @pytest.mark.parametrize("function", [
        {"profile": "gaussian", "body": _BODY},
        {"profile": "exponential", "body": {"kind": "ball", "dim": 2}},
        {"profile": "power", "s_or_p": 2.0, "body": {"kind": "ball", "dim": 2}},
    ], ids=["gaussian-square", "exponential-disc", "power-disc"])
    @pytest.mark.parametrize("m", [1, 2])
    def test_rs_single_without_exact_sups_exits_two(self, tmp_path, capsys, function, m):
        # above one dimension a tuple that is not all indicators has an exact
        # L1 norm only on the mixed-volume route, so these are out of scope
        path = _write(tmp_path, {"name": "x", "check": "rs-single", "m": m,
                                 "function": function, "samples": 64})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "rs-single" in err

    @staticmethod
    def _pfamily_configs(p):
        """Every function check on a p-family function at parameter p."""
        f = {"profile": "pfamily", "s_or_p": p, "body": {"kind": "cube", "dim": 1}}
        return [
            {"name": "x", "check": "rs-single", "function": f, "m": 1, "samples": 64},
            {"name": "x", "check": "rs-multi", "functions": [f, f], "samples": 64},
            {"name": "x", "check": "zhang-fn", "function": f, "m": 1},
            {"name": "x", "check": "tangent-bound", "function": f, "m": 1,
             "points": [[0.5]]},
            {"name": "x", "check": "chain", "function": f, "m": 1,
             "p_grid": [1.0, 2.0], "directions": 2, "nodes": 16},
        ]

    @pytest.mark.parametrize("p", [0, 0.5, -0.5])
    def test_pfamily_below_one_exits_two(self, tmp_path, capsys, p):
        # below p = 1 the p-family is not log-concave (at 0 not even
        # integrable), outside every check's hypotheses
        for k, cfg in enumerate(self._pfamily_configs(p)):
            path = _write(tmp_path, cfg)
            assert cli.main(["run", path, "--out", str(tmp_path / f"o{k}")]) == 2, cfg["check"]
            err = capsys.readouterr().err
            assert "config error" in err and "not log-concave" in err

    @pytest.mark.parametrize("p", [1, 2])
    def test_pfamily_from_one_runs(self, tmp_path, capsys, p):
        for k, cfg in enumerate(self._pfamily_configs(p)):
            path = _write(tmp_path, cfg)
            assert cli.main(["run", path, "--out", str(tmp_path / f"o{k}")]) == 0, cfg["check"]
            assert (tmp_path / f"o{k}" / "verdicts.json").exists()

    def test_inner_samples_is_accepted_and_changes_nothing(self, tmp_path,
                                                           capsys):
        config = json.loads((EXAMPLES / "rs_ball_pair.json").read_text())
        reports = []
        for label, extra in (("without", {}), ("with", {"inner_samples": 7})):
            path = _write(tmp_path, {**config, **extra})
            out = tmp_path / label
            assert cli.main(["run", path, "--out", str(out)]) == 0
            reports.append((out / "verdicts.json").read_bytes())
        assert reports[0] == reports[1]
        path = _write(tmp_path, {**config, "inner_samples": 0})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("nodes", [1, 3])
    def test_too_few_ray_nodes_exit_two(self, tmp_path, capsys, nodes):
        pentagon = {"kind": "vertices",
                    "points": [[math.cos(0.3 + 0.4 * math.pi * k),
                                math.sin(0.3 + 0.4 * math.pi * k)] for k in range(5)]}
        path = _write(tmp_path, {"name": "x", "check": "chain", "m": 1,
                                 "p_grid": [-0.5, 1.0], "body": pentagon,
                                 "directions": 2, "nodes": nodes})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "'nodes' must be >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"name": "x", "check": "rs-single", "m": 1, "samples": 1,
         "function": {"profile": "exponential", "body": {"kind": "simplex", "dim": 1}}},
        {"name": "x", "experiment": "rs-functional", "samples": 1},
        {"name": "x", "check": "zhang-fn", "m": 2, "directions": 1,
         "function": {"profile": "exponential", "body": {"kind": "cube", "dim": 2}}},
        {"name": "x", "check": "zhang-body", "m": 2, "directions": 1, "body": _BODY},
    ], ids=["rs-single-samples", "global-samples", "zhang-fn-directions",
            "zhang-body-directions"])
    def test_budget_of_one_draw_exits_two(self, tmp_path, capsys, config):
        # one draw has no standard error: these once read sigma 0
        path = _write(tmp_path, config)
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_chain_takes_one_direction(self):
        cfg = harness.validate_config({"name": "x", "check": "chain", "m": 1,
                                       "p_grid": [1.0], "body": _BODY,
                                       "directions": 1})
        assert cfg.params["directions"] == 1

    @pytest.mark.parametrize("samples", ["-3", "0", "1", "2.5"])
    @pytest.mark.parametrize("target", ["config", "all"])
    def test_bad_samples_override_exits_two(self, tmp_path, capsys, samples, target):
        where = ([str(EXAMPLES / "rs_ball_pair.json")] if target == "config"
                 else ["--all"])
        argv = ["run", *where, "--samples", samples, "--out", str(tmp_path / "o")]
        if samples == "2.5":    # argparse rejects a non-integer itself
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            return
        assert cli.main(argv) == 2
        assert "'samples' must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_point_of_wrong_length_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, {"name": "x", "check": "tangent-bound", "m": 2,
                                 "function": _FUNC, "points": [[0.1, 0.2, 0.3]]})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "'points' entry [0.1, 0.2, 0.3]" in capsys.readouterr().err

    def test_direction_of_wrong_length_exits_two(self, tmp_path, capsys):
        path = _write(tmp_path, {"name": "x", "check": "chain", "m": 1,
                                 "p_grid": [1.0], "body": _BODY,
                                 "directions": [[1.0, 0.0, 0.0]]})
        assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "n*m = 2 numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fragment", [
        # functions of two dimensions in one tuple
        ('{"name": "x", "check": "rs-multi", "functions": ['
         '{"profile": "exponential", "body": {"kind": "simplex", "dim": 1}}, '
         '{"profile": "exponential", "body": {"kind": "cube", "dim": 2}}]}',
         "share the ambient dimension"),
        # the n*m scope caps of the checks
        ('{"name": "x", "check": "rs-multi", "functions": ['
         + ", ".join(['{"profile": "indicator", "body": {"kind": "simplex", "dim": 1}}'] * 8)
         + "]}", "n*m <= 4"),
        ('{"name": "x", "check": "rs-multi", "functions": ['
         + ", ".join(['{"profile": "indicator", "body": {"kind": "cube", "dim": 2}}'] * 4)
         + "]}", "n*m <= 4"),
        ('{"name": "x", "check": "rs-single", "m": 3, "function": '
         '{"profile": "exponential", "body": {"kind": "cube", "dim": 3}}}', "n*m <= 6"),
        ('{"name": "x", "check": "zhang-fn", "m": 3, "function": '
         '{"profile": "exponential", "body": {"kind": "cube", "dim": 3}}}', "n*m <= 6"),
        ('{"name": "x", "check": "rs-body", "m": 4, "body": {"kind": "cube", "dim": 2}}',
         "n*m <= 6"),
        # a zero direction
        ('{"name": "x", "check": "chain", "m": 1, "p_grid": [1.0], '
         '"body": {"kind": "cube", "dim": 2}, "directions": [[0, 0]]}', "is zero"),
        # numbers that JSON loads as inf or nan
        ('{"name": "x", "check": "rs-single", "m": 1, "function": {"profile": '
         '"exponential", "body": {"kind": "cube", "dim": 1}, "shift": [1e400]}}', "finite"),
        ('{"name": "x", "check": "tangent-bound", "m": 1, "points": [[NaN]], "function": '
         '{"profile": "exponential", "body": {"kind": "cube", "dim": 1}}}', "finite"),
        ('{"name": "x", "check": "rs-body", "m": 1, "body": '
         '{"kind": "ball", "dim": 2, "center": [1e400, 0.0]}}', "finite"),
        # a body chain skips p = 0, so a grid of zeros alone is empty
        ('{"name": "x", "check": "chain", "m": 1, "p_grid": [0], '
         '"body": {"kind": "cube", "dim": 2}}', "skips p = 0"),
        # four translates of a ball in R^4 span three dimensions
        ('{"name": "x", "check": "chain", "m": 3, "p_grid": [1.0], '
         '"body": {"kind": "ball", "dim": 4}}', "at most a plane"),
        # vectors of the wrong length, which numpy would broadcast
        ('{"name": "x", "check": "rs-body", "m": 1, "body": '
         '{"kind": "ball", "dim": 2, "center": [1]}}', "must have shape (2,)"),
        ('{"name": "x", "check": "rs-single", "m": 1, "function": {"profile": '
         '"exponential", "body": {"kind": "simplex", "dim": 1}, "shift": [1, 2, 3]}}',
         "must have shape (1,)"),
    ], ids=["mixed-dimensions", "rs-multi-1d-cap", "rs-multi-2d-cap", "rs-single-cap",
            "zhang-fn-cap", "rs-body-cap", "zero-direction", "inf-shift", "nan-point",
            "inf-center", "chain-body-p0", "chain-ball4-m3", "center-length",
            "shift-length"])
    def test_invalid_input_exits_two(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert fragment in capsys.readouterr().err

    def test_zhang_simplex_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        rc = cli.main(["run", str(EXAMPLES / "zhang_simplex.json"),
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "verdicts.json").read_text())
        assert doc["verdicts"][0]["status"] == iq.EQUALITY
        csv = (out / "tables" / "verdicts.csv").read_text().splitlines()
        assert csv[0] == iq.CSV_HEADER
        assert csv[1].startswith("zhang-fn,")
        root = ET.parse(out / "plots" / "verdicts.svg").getroot()
        assert root.tag.endswith("svg")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["versions"]) == {"artifact", "python", "numpy",
                                             "scipy"}
        assert manifest["status_counts"] == {iq.EQUALITY: 1}

    def test_chain_example_reruns_byte_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            rc = cli.main(["run", str(EXAMPLES / "chain_gaussian.json"),
                           "--seed", "42", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        first = (outs[0] / "verdicts.json").read_bytes()
        second = (outs[1] / "verdicts.json").read_bytes()
        assert first == second
        assert (outs[0] / "manifest.json").read_bytes() == \
            (outs[1] / "manifest.json").read_bytes()
        assert (outs[0] / "plots" / "chain.svg").is_file()

    def test_verdicts_byte_identical_across_thread_counts(self, tmp_path, capsys,
                                                         monkeypatch):
        configs = [{"name": "rsf", "experiment": "rs-functional", "seed": 0},
                   # exact meetings of three discs along every ray
                   {"name": "disc-chain", "check": "chain", "m": 2,
                    "p_grid": [-0.5, 1.0], "body": {"kind": "ball", "dim": 2},
                    "directions": 2},
                   json.loads((EXAMPLES / "rs_ball_pair.json").read_text())]
        for config in configs:
            path = _write(tmp_path, config)
            reports = []
            for threads in ("1", "2"):
                monkeypatch.setenv("MTHORDER_THREADS", threads)
                out = tmp_path / f"{config['name']}-t{threads}"
                assert cli.main(["run", path, "--out", str(out)]) == 0
                reports.append((out / "verdicts.json").read_bytes())
            assert reports[0] == reports[1]

    def test_exponential_square_example_is_exact(self, tmp_path, capsys):
        # e^-||x||_inf on cube(2) at m = 2: the mixed-volume route's 144
        out = tmp_path / "square"
        assert cli.main(["run", str(EXAMPLES / "rs_exponential_square.json"),
                         "--out", str(out)]) == 0
        (v,) = json.loads((out / "verdicts.json").read_text())["verdicts"]
        assert (v["status"], v["metadata"]["route"]) == ("holds", "mixed-volume")
        assert v["lhs"]["value"] == pytest.approx(144.0, rel=1e-13)
        assert v["sigma_combined"] == 0.0

    def test_tangent_bound_disc_example(self, tmp_path, capsys):
        # the Gaussian on the unit disc at m = 2: the batched level quadrature
        # over exact disc meetings, pinned to its values
        out = tmp_path / "disc"
        assert cli.main(["run", str(EXAMPLES / "tangent_bound_disc.json"),
                         "--out", str(out)]) == 0
        (v,) = json.loads((out / "verdicts.json").read_text())["verdicts"]
        assert v["status"] == "holds"
        assert v["lhs"]["value"] == 4.849782353360204
        assert v["rhs"]["value"] == 4.945666300034217
        assert 0.0 < v["lhs"]["std_error"] <= 1e-12
        np.testing.assert_allclose(v["metadata"]["margins"], [0.09588394667401356,
                                   0.2181461131751785, 0.3390052064043374], rtol=1e-12)
        assert v["metadata"]["worst_point"] == 0

    def test_samples_override_lands_in_manifest(self, tmp_path, capsys):
        out = tmp_path / "pair"
        rc = cli.main(["run", str(EXAMPLES / "rs_ball_pair.json"),
                       "--samples", "200", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["budgets"]["samples"] == 200
        assert manifest["config"]["name"] == "rs-ball-pair"

    def test_env_thread_cap_recorded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MTHORDER_THREADS", "2")
        out = tmp_path / "threads"
        rc = cli.main(["run", str(EXAMPLES / "zhang_simplex.json"),
                       "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["budgets"]["threads"] == 2
