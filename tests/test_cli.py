import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruswalk import chains, cli, spectral
from toruswalk.cli import (
    SCHEMA_DOC,
    ConfigError,
    canonical_json,
    config_hash,
    main,
    normalize_config,
    report_body,
    run,
    verify_report,
)

F = Fraction

WALK_CFG = {
    "kind": "walk-sim",
    "irrationals": ["sqrt2"],
    "D": [2, 3],
    "alpha": ["0", "1*sqrt2"],
    "x0": "0",
    "N": 4000,
    "K": 4,
    "seed": 11,
}

COND_CFG = {
    "kind": "condition-check",
    "condition": "ifs",
    "irrationals": ["sqrt2"],
    "D": 3,
    "r": [1, 1],
    "t": ["0", "2/3*sqrt2"],
}


class TestConfigNormalization:
    def test_roundtrip_identity(self):
        cfg = normalize_config(WALK_CFG)
        again = normalize_config(json.loads(canonical_json(cfg)))
        assert cfg == again

    def test_defaults_filled(self):
        cfg = normalize_config(COND_CFG)
        assert cfg["seed"] == 0
        assert cfg["precision"] == "auto"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            normalize_config({"kind": "nope"})

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="'t'"):
            normalize_config({"kind": "normality", "D": 3, "r": [1]})

    def test_bad_scalar_named(self):
        bad = dict(COND_CFG, t=["0", "2//3"])
        with pytest.raises(ConfigError, match="t"):
            normalize_config(bad)

    def test_undeclared_symbol_rejected(self):
        bad = dict(COND_CFG, irrationals=[])
        with pytest.raises(ConfigError):
            normalize_config(bad)

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["kind", "D", "t", "r", "alpha", "N", "seed", "x"]),
            st.one_of(st.integers(), st.text(max_size=6), st.lists(st.integers(), max_size=3)),
            max_size=5,
        )
    )
    def test_fuzzed_configs_error_cleanly(self, raw):
        try:
            normalize_config(raw)
        except (ConfigError, ValueError, TypeError):
            pass


# one config per kind (condition-check in both variants), every optional
# field given
SCHEMA_CFGS = [
    WALK_CFG,
    {
        "kind": "rotation-case",
        "irrationals": ["sqrt2"],
        "alpha": ["1/2", "1/4*sqrt2"],
        "P": ["1/3", "2/3"],
        "control_q": 2,
    },
    {"kind": "normality", "irrationals": ["sqrt2"], "D": 3, "r": [1, 1], "t": ["0", "2/3*sqrt2"]},
    COND_CFG,
    {
        "kind": "condition-check",
        "condition": "walk",
        "irrationals": ["sqrt2"],
        "D": [2, 3],
        "alpha": ["0", "1*sqrt2"],
    },
    {"kind": "rational-case", "D": 3, "t": ["1/5", "7/10"]},
    {"kind": "stationary-support", "D": [2, 3], "alpha": ["1/11", "2/13"]},
    {
        "kind": "fourier",
        "measures": {"mu0": {"base": 4, "atoms": ["0", "1/2"]}, "nu": {"base": 4, "atoms": ["0", "1/4"]}},
        "zero_checks": [{"measure": "mu0", "pattern": "odd"}],
        "haar_convolution": ["nu", "mu0"],
    },
]


class TestSchemaDoc:
    @staticmethod
    def _documented(kind: str) -> set[str]:
        doc = dict(SCHEMA_DOC["config"], **SCHEMA_DOC[kind])
        names = set(doc)
        # condition-check names its fields inside the "walk fields" and
        # "ifs fields" lines: "D (matrices), alpha (scalar vectors)"
        for line in ("walk fields", "ifs fields"):
            if line in doc:
                names.update(part.split()[0] for part in doc[line].split(", "))
        return names

    @pytest.mark.parametrize("raw", SCHEMA_CFGS, ids=lambda c: f"{c['kind']}-{c.get('condition', '')}")
    def test_every_normalized_field_documented(self, raw):
        cfg = normalize_config(raw)
        given = {key for key, value in cfg.items() if value is not None}
        assert given - self._documented(cfg["kind"]) == set()

    def test_every_kind_documented(self):
        assert {c["kind"] for c in SCHEMA_CFGS} == set(SCHEMA_DOC) - {"config", "report"}

    def test_trajectory_format_documented(self):
        line = SCHEMA_DOC["report"]["trajectory.csv"]
        assert "n,x0" in line and "%.17g" in line and "CRLF" in line


class TestRunDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        r1 = run(WALK_CFG, tmp_path / "a")
        r2 = run(WALK_CFG, tmp_path / "b")
        assert report_body(r1) == report_body(r2)
        assert r1["prng"] == "numpy-PCG64/SeedSequence"

    def test_seed_override_changes_body(self, tmp_path):
        r1 = run(WALK_CFG, tmp_path / "a")
        r2 = run(WALK_CFG, tmp_path / "b", seed_override=99)
        assert report_body(r1) != report_body(r2)
        assert r2["seed"] == 99

    def test_seed_override_is_checked_by_the_seed_row(self, tmp_path, capsys):
        # ended in numpy's "expected non-negative integer", naming no field
        assert "field 'seed'" in _run_error(tmp_path, capsys, WALK_CFG, "--seed", "-5")
        assert not (tmp_path / "out").exists()

    def test_sidecars_written(self, tmp_path):
        report = run(WALK_CFG, tmp_path / "out")
        for name in report["sidecars"]:
            assert (tmp_path / "out" / name).exists()
        assert (tmp_path / "out" / "report.json").exists()


class TestWorkedExamples:
    def test_dilated_cantor_condition(self, tmp_path):
        report = run(COND_CFG, tmp_path)
        assert report["results"]["dense"] is True

    def test_classical_cantor_condition(self, tmp_path):
        cfg = dict(COND_CFG, t=["0", "2/3"], irrationals=[])
        report = run(cfg, tmp_path)
        assert report["results"]["dense"] is False
        assert report["results"]["witness_valid"] is True

    def test_stationary_support_example(self, tmp_path):
        cfg = {"kind": "stationary-support", "D": [2, 2], "alpha": ["0", "1/2"]}
        report = run(cfg, tmp_path)
        res = report["results"]
        assert res["states"] == ["0", "1/2"]
        assert res["stationary"] == ["1/2", "1/2"]
        assert res["transition"] == [["1/2", "1/2"], ["1/2", "1/2"]]

    def test_stationary_support_writes_zero_entries(self, tmp_path):
        # the q = 15 chain i -> 2i, i -> 3i + 8: each row is dense, "0" off its targets
        res = run(_SHORT_P["stationary-support"], tmp_path)["results"]
        assert res["q"] == 15
        assert res["transition"][0] == ["1/2"] + ["0"] * 7 + ["1/2"] + ["0"] * 6
        assert all(len(row) == 15 and row.count("0") >= 13 for row in res["transition"])

    def test_rational_case_requires_rational_differences(self, tmp_path):
        from toruswalk.chains import RationalityError

        cfg = {
            "kind": "rational-case",
            "irrationals": ["sqrt2"],
            "D": 3,
            "t": ["0", "1*sqrt2"],
            "N": 100,
        }
        with pytest.raises(RationalityError):
            run(cfg, tmp_path)


class TestVerify:
    def _passing_report(self, tmp_path):
        return run(WALK_CFG, tmp_path)

    def test_passing_suite(self, tmp_path):
        report = self._passing_report(tmp_path)
        checks = verify_report(report, "walk-sim")
        assert all(c["pass"] for c in checks)

    def test_threshold_failure_lists_offending_k(self, tmp_path):
        report = self._passing_report(tmp_path)
        report["results"]["max_weyl"] = 0.9
        report["results"]["weyl"]["1"] = "0.9"
        checks = verify_report(report, "walk-sim")
        weyl = next(c for c in checks if c["check"] == "weyl")
        assert not weyl["pass"]
        assert "offending k: 1" in weyl["detail"]

    def test_tampered_hash_schema_error(self, tmp_path):
        report = self._passing_report(tmp_path)
        report["config"]["seed"] = 12345
        with pytest.raises(ConfigError, match="hash"):
            verify_report(report, "walk-sim")

    def test_wrong_suite_rejected(self, tmp_path):
        report = self._passing_report(tmp_path)
        with pytest.raises(ConfigError, match="suite"):
            verify_report(report, "normality")


class TestMainEntry:
    def test_run_and_verify_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(WALK_CFG))
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "-o", str(out)]) == 0
        assert main(["verify", str(out / "report.json"), "--suite", "walk-sim"]) == 0
        assert main(["verify", str(out / "report.json"), "--suite", "fourier"]) == 2

    def test_schema_prints_json(self, capsys):
        assert main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "walk-sim" in doc and "config" in doc

    def test_batch_list(self, tmp_path):
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps([COND_CFG, COND_CFG]))
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "-o", str(out)]) == 0
        assert (out / "experiment_0" / "report.json").exists()
        assert (out / "experiment_1" / "report.json").exists()

    def test_bad_config_exit_two(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"kind": "walk-sim"}))
        assert main(["run", str(cfg_path)]) == 2

    def test_unparseable_json_exit_two(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["run", str(cfg_path)]) == 2

    def test_failing_verify_exit_one(self, tmp_path):
        report = run(WALK_CFG, tmp_path / "out")
        report["results"]["max_weyl"] = 0.9
        report_path = tmp_path / "out" / "report.json"
        report_path.write_text(json.dumps(report))
        assert main(["verify", str(report_path), "--suite", "walk-sim"]) == 1


class TestHashing:
    def test_hash_stable_under_key_order(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)


class TestMultidimensionalWalk:
    def test_2d_walk_runs_and_reports(self, tmp_path):
        cfg = {
            "kind": "walk-sim",
            "irrationals": ["sqrt2"],
            "D": [[[0, -2], [1, 0]], [[2, 0], [0, 2]]],
            "alpha": [["0", "0"], ["1*sqrt2", "1/3"]],
            "x0": ["0", "0"],
            "N": 3000,
            "K": 2,
            "seed": 4,
        }
        report = run(cfg, tmp_path)
        ws = report["results"]["weyl"]
        assert len(ws) == 24  # 5^2 - 1 frequency vectors
        assert report["results"]["max_weyl"] < 0.1
        assert "star_discrepancy" not in report["results"]

    def test_mismatched_dimensions_rejected(self):
        cfg = {
            "kind": "walk-sim",
            "D": [[[2]], [[2, 0], [0, 2]]],
            "alpha": ["0", "0"],
        }
        with pytest.raises(ConfigError, match="dimension"):
            normalize_config(cfg)


class TestRationalCaseIrrationalBase:
    def test_irrational_t1_empirical_only(self, tmp_path):
        # differences rational but t_1 = sqrt2: the limit law is not finitely
        # computable; the run still reports eta statistics and Weyl data, and
        # since sqrt2's times-3 orbit equidistributes, so does the full sum
        cfg = {
            "kind": "rational-case",
            "irrationals": ["sqrt2"],
            "D": 3,
            "t": ["1*sqrt2", "1/2 + 1*sqrt2"],
            "N": 30000,
            "K": 4,
            "seed": 23,
        }
        report = run(cfg, tmp_path)
        res = report["results"]
        assert res["char_dev"] is None
        assert "not finitely computable" in res["note"]
        assert res["state_freq_dev"] <= 0.02
        assert max(float(v) for v in res["weyl"].values()) < 0.05
        checks = verify_report(report, "rational-case")
        assert all(c["pass"] for c in checks)


class TestPrecisionPolicy:
    def test_explicit_precision_too_small_exits_three(self, tmp_path):
        cfg = dict(WALK_CFG, N=4000, precision=64)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 3

    def test_explicit_precision_sufficient(self, tmp_path):
        cfg = dict(WALK_CFG, N=40, precision=256)
        report = run(cfg, tmp_path)
        assert report["precision_bits"] == 256


FOURIER_CFG = {
    "kind": "fourier",
    "measures": {
        "mu0": {"base": 4, "atoms": ["0", "1/2"]},
        "nu": {"base": 4, "atoms": ["0", "1/4"]},
        "tri": {"base": 3, "atoms": ["0", "1/3", "2/3"], "weights": ["1/4", "1/2", "1/4"]},
    },
    "tol": 1e-12,
    "dump_range": 40,
    "zero_checks": [{"measure": "mu0", "pattern": "odd", "k_max": 2, "m_max": 5}],
    "haar_convolution": ["nu", "mu0"],
    "haar_range": 20,
}


class TestFourierRun:
    def test_byte_identical_reports_with_diagnostics(self, tmp_path):
        r1 = run(FOURIER_CFG, tmp_path / "a")
        r2 = run(FOURIER_CFG, tmp_path / "b")
        assert report_body(r1) == report_body(r2)
        diag = r1["results"]["diagnostics"]
        assert sorted(diag) == ["mu0", "nu", "tri"]
        for name, entry in diag.items():
            assert entry["evaluator"] == spectral.EVALUATOR
            assert entry["coefficients"] >= 2 * 40 + 1
        # the deepest product of tri is its largest dumped frequency
        tri = spectral.SelfSimilarSpec.create(
            3, [0, F(1, 3), F(2, 3)], [F(1, 4), F(1, 2), F(1, 4)]
        )
        assert diag["tri"]["max_depth"] == spectral.truncation_depth(tri, 40, 1e-12)
        assert diag["tri"]["coefficients"] == 2 * 40 + 1

    def test_only_exact_zeros_have_no_depth(self, tmp_path):
        cfg = {"kind": "fourier", "measures": {"mu0": {"base": 4, "atoms": ["0", "1/2"]}},
               "dump_range": 0, "zero_checks": [{"measure": "mu0", "pattern": "odd"}]}
        diag = run(cfg, tmp_path)["results"]["diagnostics"]["mu0"]
        assert diag["max_depth"] is None
        assert diag["coefficients"] == 1 + 6 * 41


def _run_error(tmp_path, capsys, cfg, *options) -> str:
    """stderr of a `toruswalk run` of `cfg` with `options`, which must exit
    with status 2 and write no report."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "-o", str(tmp_path / "out"), *options]) == 2
    assert not (tmp_path / "out" / "report.json").exists()
    return capsys.readouterr().err


def _fourier_run_error(tmp_path, capsys, edit) -> str:
    """stderr of a `toruswalk run` of FOURIER_CFG changed by `edit`, which
    must exit with status 2."""
    cfg = json.loads(json.dumps(FOURIER_CFG))
    edit(cfg)
    return _run_error(tmp_path, capsys, cfg)


class TestFourierConfigErrors:
    def test_measure_without_atoms(self, tmp_path, capsys):
        err = _fourier_run_error(tmp_path, capsys, lambda c: c["measures"]["mu0"].pop("atoms"))
        assert "'measures.mu0.atoms'" in err

    def test_nan_tol(self, tmp_path, capsys):
        assert "'tol'" in _fourier_run_error(tmp_path, capsys, lambda c: c.update(tol="nan"))

    def test_negative_dump_range(self, tmp_path, capsys):
        err = _fourier_run_error(tmp_path, capsys, lambda c: c.update(dump_range=-1))
        assert "'dump_range'" in err

    def test_haar_range_below_one(self, tmp_path, capsys):
        err = _fourier_run_error(tmp_path, capsys, lambda c: c.update(haar_range=0))
        assert "'haar_range'" in err

    def test_base_below_two(self, tmp_path, capsys):
        err = _fourier_run_error(tmp_path, capsys, lambda c: c["measures"]["mu0"].update(base=-1))
        assert "'measures.mu0.base'" in err

    def test_non_integer_base(self, tmp_path, capsys):
        err = _fourier_run_error(
            tmp_path, capsys, lambda c: c["measures"]["mu0"].update(base="four")
        )
        assert "'measures.mu0.base'" in err

    def test_weight_count_named(self, tmp_path, capsys):
        err = _fourier_run_error(
            tmp_path, capsys, lambda c: c["measures"]["tri"].update(weights=["1/2", "1/2"])
        )
        assert "'measures.tri.weights'" in err

    def test_zero_check_not_a_table(self, tmp_path, capsys):
        err = _fourier_run_error(tmp_path, capsys, lambda c: c.update(zero_checks=[1]))
        assert "'zero_checks'" in err

    def test_nan_tol_rejected_by_library(self):
        spec = spectral.SelfSimilarSpec.create(4, [0, F(1, 3)])
        with pytest.raises(ValueError):
            spectral.fourier_selfsimilar(spec, 1, math.nan)


# One config per kind that takes P: each has two maps, given one probability.
_SHORT_P = {
    "walk-sim": WALK_CFG,
    "rotation-case": {"kind": "rotation-case", "alpha": ["1/2", "1/3"], "N": 10},
    "normality": {"kind": "normality", "D": 3, "r": [1, 1], "t": ["0", "2/3"], "N": 10},
    "rational-case": {"kind": "rational-case", "D": 3, "t": ["1/5", "7/10"], "N": 10},
    "stationary-support": {"kind": "stationary-support", "D": [2, 3], "alpha": ["1/3", "1/5"]},
}


class TestProbabilityCount:
    @pytest.mark.parametrize("kind", sorted(_SHORT_P))
    def test_short_p_named(self, kind, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(_SHORT_P[kind], P=["1"])))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        assert "field 'P'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_long_p_named(self):
        with pytest.raises(ConfigError, match="'P'"):
            normalize_config(dict(_SHORT_P["stationary-support"], P=["1/3"] * 3))

    def test_normality_r_count_named(self):
        with pytest.raises(ConfigError, match="'r'"):
            normalize_config(dict(_SHORT_P["normality"], r=[1]))


_RATIONAL_CFG = _SHORT_P["rational-case"]
_ZERO_CHECK = {"measure": "mu0", "pattern": "odd"}

_WALK_2D_CFG = {
    "kind": "walk-sim",
    "D": [[[2, 0], [0, 3]]],
    "alpha": [["0", "1/3"]],
    "N": 10,
}


class TestSizeCaps:
    @pytest.mark.parametrize(
        "cfg, field",
        [
            (dict(WALK_CFG, precision=7.05e16), "precision"),
            (dict(WALK_CFG, precision=cli.MAX_PRECISION + 1), "precision"),
            (dict(WALK_CFG, N=cli.MAX_STEPS + 1), "N"),
            (dict(_SHORT_P["normality"], N=10 ** 12), "N"),
            (dict(_RATIONAL_CFG, N=2 ** 70), "N"),
            (dict(_SHORT_P["rotation-case"], K=cli.MAX_K + 1), "K"),
            (dict(_WALK_2D_CFG, K=600), "K"),
            (dict(_SHORT_P["normality"], N=10 ** 6, L=13), "L"),
            (dict(_SHORT_P["normality"], D=10 ** 9, N=10 ** 6, L=1), "L"),
            (dict(FOURIER_CFG, dump_range=cli.MAX_RANGE + 1), "dump_range"),
            (dict(FOURIER_CFG, haar_range=10 ** 15), "haar_range"),
            # k_max 520 ended in an OverflowError from float(2 pi n)
            (dict(FOURIER_CFG, zero_checks=[dict(_ZERO_CHECK, k_max=520, m_max=0)]), "zero_checks.k_max"),
            (dict(FOURIER_CFG, zero_checks=[dict(_ZERO_CHECK, k_max=cli.MAX_ZERO_K + 1)]), "zero_checks.k_max"),
            (dict(FOURIER_CFG, zero_checks=[dict(_ZERO_CHECK, m_max=cli.MAX_ZERO_M + 1)]), "zero_checks.m_max"),
        ],
    )
    def test_over_the_cap_is_refused_by_name(self, cfg, field, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            normalize_config(cfg)
        assert info.value.field == field
        err = _run_error(tmp_path, capsys, cfg)
        assert f"field '{field}'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(WALK_CFG, precision=cli.MAX_PRECISION, N=cli.MAX_STEPS, K=cli.MAX_K),
            dict(_WALK_2D_CFG, K=511),
            dict(_SHORT_P["normality"], N=10 ** 6, L=12),
            # the digits are in base 2^2: (2^2)^10 = MAX_TABLE block rows
            dict(_SHORT_P["normality"], D=2, r=[2, 2], N=10 ** 6, L=10),
            dict(_SHORT_P["normality"], r=[1, cli.MAX_EXPONENT]),
            dict(COND_CFG, r=[1, cli.MAX_EXPONENT]),
            dict(_SHORT_P["rotation-case"], control_q=cli.MAX_K),
            dict(_RATIONAL_CFG, D=-cli.MAX_TABLE),
            dict(SCHEMA_CFGS[6], D=[cli.MAX_TABLE, -cli.MAX_TABLE]),
            {**FOURIER_CFG, "measures": {**FOURIER_CFG["measures"], "nu": {"base": cli.MAX_TABLE, "atoms": ["0", "1/4"]}}},
            dict(FOURIER_CFG, dump_range=cli.MAX_RANGE, haar_range=cli.MAX_RANGE),
            dict(FOURIER_CFG, zero_checks=[dict(_ZERO_CHECK, k_max=cli.MAX_ZERO_K, m_max=cli.MAX_ZERO_M)]),
        ],
    )
    def test_the_caps_themselves_are_accepted(self, cfg):
        normalize_config(cfg)

    # q = MAX_STATES + 1, refused before its dense q x q chain is built
    @pytest.mark.parametrize(
        "cfg, field",
        [
            (dict(_SHORT_P["stationary-support"], alpha=["0", f"1/{chains.MAX_STATES + 1}"]), "alpha"),
            (dict(_RATIONAL_CFG, t=["0", f"1/{chains.MAX_STATES + 1}"]), "t"),
        ],
    )
    def test_chain_over_the_bound_is_refused_by_name(self, cfg, field, tmp_path, capsys):
        err = _run_error(tmp_path, capsys, cfg)
        assert f"field '{field}'" in err and "Traceback" not in err
        assert f"q = {chains.MAX_STATES + 1}" in err and f"limit of {chains.MAX_STATES}" in err

    def test_schema_prints_the_caps(self, capsys):
        assert main(["schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert f"<= {cli.MAX_PRECISION}" in doc["config"]["precision"]
        for kind in ("walk-sim", "rotation-case", "rational-case", "normality"):
            assert f"<= {cli.MAX_STEPS}" in doc[kind]["N"]
        assert f"<= {cli.MAX_K}" in doc["walk-sim"]["K"]
        assert f"<= {cli.MAX_TABLE}" in doc["normality"]["L"]
        for name in ("dump_range", "haar_range"):
            assert f"<= {cli.MAX_RANGE}" in doc["fourier"][name]
        zero_checks = doc["fourier"]["zero_checks fields"]
        assert f"<= {cli.MAX_ZERO_K}" in zero_checks and f"<= {cli.MAX_ZERO_M}" in zero_checks
        assert f"<= {chains.MAX_STATES}" in doc["stationary-support"]["alpha"]
        assert f"<= {chains.MAX_STATES}" in doc["rational-case"]["t"]
        assert f"[1, {cli.MAX_EXPONENT}]" in doc["normality"]["r"]
        assert f"[1, {cli.MAX_EXPONENT}]" in doc["condition-check"]["ifs fields"]
        assert "D^gcd(r)" in doc["normality"]["D"] and "(D^gcd(r))^L" in doc["normality"]["L"]
        assert f"<= {cli.MAX_K}" in doc["rotation-case"]["control_q"]
        assert f"<= {cli.MAX_TABLE}" in doc["fourier"]["measure fields"]
        for kind in ("rational-case", "stationary-support"):
            assert f"<= {cli.MAX_TABLE}" in doc[kind]["D"]


class TestIntegerFields:
    def test_rational_case_n_zero(self, tmp_path, capsys):
        err = _run_error(tmp_path, capsys, dict(_RATIONAL_CFG, N=0))
        assert "field 'N'" in err and "Traceback" not in err

    def test_rational_case_k_zero(self, tmp_path, capsys):
        assert "field 'K'" in _run_error(tmp_path, capsys, dict(_RATIONAL_CFG, K=0))

    @pytest.mark.parametrize(
        "cfg, field",
        [
            (dict(WALK_CFG, N="x"), "'N'"),
            (dict(WALK_CFG, K="x"), "'K'"),
            (dict(WALK_CFG, seed="x"), "'seed'"),
            (dict(WALK_CFG, precision="x"), "'precision'"),
            (dict(_SHORT_P["normality"], L="x"), "'L'"),
            (dict(_SHORT_P["normality"], r=[1, "x"]), "'r'"),
            (dict(COND_CFG, r="x"), "'r'"),
            (dict(_SHORT_P["rotation-case"], control_q="x"), "'control_q'"),
            (dict(FOURIER_CFG, dump_range="x"), "'dump_range'"),
            (dict(FOURIER_CFG, haar_range="x"), "'haar_range'"),
            (
                dict(FOURIER_CFG, zero_checks=[{"measure": "mu0", "pattern": "odd", "k_max": "z"}]),
                "'zero_checks.k_max'",
            ),
            (
                dict(FOURIER_CFG, zero_checks=[{"measure": "mu0", "pattern": "odd", "m_max": "z"}]),
                "'zero_checks.m_max'",
            ),
        ],
    )
    def test_non_integer_named(self, cfg, field):
        with pytest.raises(ConfigError, match=field):
            normalize_config(cfg)

    @pytest.mark.parametrize("kind", ["walk-sim", "rotation-case"])
    def test_x0_dimension(self, kind, tmp_path, capsys):
        cfg = dict(_SHORT_P[kind], x0=["1/7", "1/3"])
        assert "field 'x0'" in _run_error(tmp_path, capsys, cfg)

    def test_condition_walk_empty_d(self, tmp_path, capsys):
        cfg = {"kind": "condition-check", "condition": "walk", "D": [], "alpha": []}
        err = _run_error(tmp_path, capsys, cfg)
        assert "field 'D'" in err and "Traceback" not in err

    def test_condition_walk_alpha_count(self, tmp_path, capsys):
        cfg = {"kind": "condition-check", "condition": "walk", "D": [2, 3], "alpha": ["1/3"]}
        assert "'alpha'" in _run_error(tmp_path, capsys, cfg)


class TestImportPath:
    def test_cli_import_leaves_mpmath_unloaded(self):
        src = Path(spectral.__file__).resolve().parents[1]
        code = "import sys, toruswalk.cli; print('mpmath' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestRationalCasePoints:
    """The float64 points of the rational case against exact Fraction points
    computed from the definitions, within the derived per-point bound."""

    @pytest.mark.parametrize(
        "d, ts, tail_len",
        [
            (3, ["1/5", "7/10"], 42),
            (2, ["1/3", "2/3", "0"], 64),
            (5, ["7/3", "-1/6"], 30),
            (3, ["1/5", "7/10"], 6),  # short tail: the truncation term dominates
            (3, ["1/27", "1/2"], 42),  # c = 1/18: preperiod [1/6], cycle [1/2]
        ],
    )
    def test_points_within_bound(self, d, ts, tail_len):
        from toruswalk import chains
        from toruswalk.exactcore import IrrationalBasis, parse_scalar

        basis = IrrationalBasis(())
        t_scalars = [parse_scalar(t, basis) for t in ts]
        t_exact = [F(t) for t in ts]
        eta = chains.build_eta_chain(d, t_scalars)
        n, extra = 150, 160
        letters = np.random.default_rng(d * tail_len).integers(
            1, len(ts) + 1, size=n + tail_len + extra
        )
        sample, eta_idx = chains._rational_case_points(eta, letters[: n + tail_len], n)
        points, bound = sample.points[:, 0], sample.error_bound
        assert sample.precision_bits is None
        if tail_len >= 30:
            assert bound < 2.0 ** -40
        c = F(d, d - 1) * t_exact[0]
        t_max = max(abs(t) for t in t_exact)
        state = eta.deltas_tilde[letters[0] - 1]
        worst = F(0)
        for m in range(n):
            if m:
                state = eta.next_state(state, int(letters[m]))
            assert eta.states[eta_idx[m]] == state
            depth = len(letters) - m - 1
            tail = sum(
                t_exact[letters[m + 1 + j] - 1] * F(1, d) ** j for j in range(depth)
            )
            # what the extra letters leave out is below t_max |D|^-depth G
            rest = t_max * F(1, d) ** depth * F(d, d - 1)
            exact = c * d ** (m + 1) - c + state + tail
            gap = (F(float(points[m])) - exact) % 1
            gap = min(gap, 1 - gap)
            assert gap <= F(bound) + rest
            worst = max(worst, gap)
        assert worst > 0


# ---------------------------------------------------------------------------
# the field table: bad input, defaults, batches

# Each value is refused with its field named.  Without the field table the
# first eight ended in a traceback, N ran as 2 and as 1, the mistyped n was
# ignored, and a negative k_max checked an empty index family.
_BAD_FIELDS = [
    (dict(WALK_CFG, D=[[[None]]]), "D"),
    (dict(COND_CFG, irrationals=5), "irrationals"),
    (dict(COND_CFG, irrationals="sqrt2"), "irrationals"),
    (dict(FOURIER_CFG, tol=[1]), "tol"),
    (dict(_SHORT_P["rotation-case"], alpha=5), "alpha"),
    (dict(_SHORT_P["rotation-case"], alpha=[5, 3]), "alpha"),
    (dict(COND_CFG, t=5), "t"),
    (dict(FOURIER_CFG, haar_convolution=5), "haar_convolution"),
    (dict(WALK_CFG, N=2.7), "N"),
    (dict(WALK_CFG, N=True), "N"),
    (dict(WALK_CFG, n=10), "n"),
    (dict(FOURIER_CFG, zero_checks=[{"measure": "mu0", "pattern": "odd", "k_max": -1}]), "zero_checks.k_max"),
    # P: rationals > 0 summing to exactly 1 (["1", "1"] ran as uniform)
    pytest.param(dict(WALK_CFG, P=["1", "1"]), "P", id="P-sum-2"),
    pytest.param(dict(WALK_CFG, P=["3/2", "-1/2"]), "P", id="P-negative"),
    pytest.param(dict(WALK_CFG, P=["1", "-1"]), "P", id="P-sum-0"),
    pytest.param(dict(WALK_CFG, P=["1*sqrt2", "0"]), "P", id="P-irrational"),
    # refused by the library alone before, with a message naming no field
    pytest.param(dict(SCHEMA_CFGS[5], D=1), "D", id="rational-case-D-1"),
    pytest.param(dict(SCHEMA_CFGS[6], D=[1, 3]), "D", id="stationary-support-D-1"),
    pytest.param(dict(COND_CFG, D=[[3, 0], [0, 3]]), "t", id="ifs-t-dimension"),
    pytest.param(dict(SCHEMA_CFGS[4], D=[[[3, 0], [0, 3]], [[2, 0], [0, 2]]]), "alpha", id="walk-alpha-dimension"),
    # 0 was accepted and then skipped without a control_char
    pytest.param(dict(_SHORT_P["rotation-case"], control_q=0), "control_q", id="control_q-0"),
    pytest.param(dict(_SHORT_P["rotation-case"], control_q=-2), "control_q", id="control_q-negative"),
    # the digits are in base D^gcd(r): 3^12 <= 2^20 < 9^12 (ran with 9^6
    # block rows at L = 6; r = [64, 64] ended in an unnamed OverflowError)
    pytest.param(dict(_SHORT_P["normality"], r=[2, 2], L=12, N=12), "L", id="normality-gcd-table"),
    pytest.param(dict(_SHORT_P["normality"], r=[64, 64], N=10000), "L", id="normality-gcd-64"),
    # refused by the library with no field named, or left running
    pytest.param(dict(_SHORT_P["normality"], r=[0, 1]), "r", id="normality-r-0"),
    pytest.param(dict(_SHORT_P["normality"], r=[1, 10 ** 6]), "r", id="normality-r-huge"),
    pytest.param(dict(COND_CFG, r=[1, 10 ** 6]), "r", id="ifs-r-huge"),
    # each ended in an unnamed "int too large to convert to float"
    pytest.param(dict(_SHORT_P["rotation-case"], control_q=10 ** 400), "control_q", id="control_q-huge"),
    pytest.param(dict(_RATIONAL_CFG, D=10 ** 400), "D", id="rational-case-D-huge"),
    pytest.param(
        {**FOURIER_CFG, "measures": {**FOURIER_CFG["measures"], "nu": {"base": 10 ** 400, "atoms": ["0", "1/4"]}}},
        "measures.nu.base",
        id="measure-base-huge",
    ),
    # was refused under 'alpha'
    pytest.param(dict(SCHEMA_CFGS[6], D=[10 ** 400, 3]), "D", id="stationary-support-D-huge"),
    # every scalar is bounded by |value| <= 2^10; the first three ended in an
    # unnamed "integer division result too large for a float", the rotation in
    # an exhausted error budget, the last in a float64 bound past 2^-32
    pytest.param(dict(SCHEMA_CFGS[2], t=["0", f"{10 ** 400}*sqrt2"]), "t", id="normality-t-huge"),
    pytest.param(
        {**FOURIER_CFG, "measures": {**FOURIER_CFG["measures"], "nu": {"base": 4, "atoms": ["0", str(10 ** 400)]}}},
        "measures.nu.atoms",
        id="measure-atom-huge",
    ),
    pytest.param(dict(_RATIONAL_CFG, t=["1/5", f"{10 ** 400}/7"]), "t", id="rational-case-t-huge"),
    pytest.param(dict(SCHEMA_CFGS[1], alpha=["1/2", f"{10 ** 400}*sqrt2"]), "alpha", id="rotation-alpha-huge"),
    pytest.param(dict(_RATIONAL_CFG, t=["10000001/5", "100000007/10"]), "t", id="rational-case-t-float-bound"),
]


def _schema_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["schema"]) == 0
    return out.getvalue()


# The fields each kind requires besides `kind`, and the defaults a config
# gets when it names only those.
_PINNED_REQUIRED = {
    ("walk-sim", None): ["D", "alpha"],
    ("rotation-case", None): ["alpha"],
    ("normality", None): ["D", "r", "t"],
    ("condition-check", "ifs"): ["D", "r", "t"],
    ("condition-check", "walk"): ["D", "alpha"],
    ("rational-case", None): ["D", "t"],
    ("stationary-support", None): ["D", "alpha"],
    ("fourier", None): ["measures"],
}
_PINNED_DEFAULTS = {
    "walk-sim": {"seed": 0, "precision": "auto", "N": 100000, "K": 8},
    "rotation-case": {"D": None, "N": 100000, "K": 8},
    "normality": {"N": 10000, "L": 2},
    "condition-check": {"seed": 0, "precision": "auto"},
    "rational-case": {"N": 100000, "K": 8},
    "stationary-support": {"seed": 0},
    "fourier": {"dump_range": 32, "tol": 1e-9, "zero_checks": [], "haar_convolution": None, "haar_range": 1000},
}


class TestFieldTable:
    @pytest.mark.parametrize("cfg, field", _BAD_FIELDS, ids=lambda x: x if isinstance(x, str) else "")
    def test_bad_value_names_field(self, cfg, field, tmp_path, capsys):
        with pytest.raises(ConfigError) as info:
            normalize_config(cfg)
        assert info.value.field == field
        assert f"field '{field}'" in _run_error(tmp_path, capsys, cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", SCHEMA_CFGS, ids=lambda c: f"{c['kind']}-{c.get('condition', '')}")
    def test_missing_required_field_named(self, raw):
        rows = cli.FIELDS[raw["kind"]] + cli.CONDITION_FIELDS.get(raw.get("condition"), [])
        required = [f.name for f in rows if f.default is cli.REQUIRED]
        assert required == _PINNED_REQUIRED[raw["kind"], raw.get("condition")]
        for name in required:
            with pytest.raises(ConfigError, match=f"field '{name}': missing"):
                normalize_config({k: v for k, v in raw.items() if k != name})

    @pytest.mark.parametrize("d", [2, -2, 3])
    def test_scalar_at_the_bound_runs(self, d, tmp_path):
        report = run(dict(_RATIONAL_CFG, D=d, t=["1/5", "-1024", "1024"]), tmp_path)
        assert report["results"]["q"] == 5

    def test_whole_float_is_an_integer(self):
        assert normalize_config(dict(WALK_CFG, N=3.0))["N"] == 3

    @pytest.mark.parametrize("raw", SCHEMA_CFGS, ids=lambda c: f"{c['kind']}-{c.get('condition', '')}")
    def test_minimal_config_takes_documented_defaults(self, raw):
        rows = cli.COMMON + cli.FIELDS[raw["kind"]]
        if raw["kind"] == "condition-check":
            rows = rows + cli.CONDITION_FIELDS[raw["condition"]]
        required = {f.name for f in rows if f.default is cli.REQUIRED}
        kept = required | {"irrationals"} | ({"condition"} if raw.get("condition") == "walk" else set())
        minimal = {k: v for k, v in raw.items() if k in kept}
        cfg = normalize_config(minimal)
        assert {name: cfg[name] for name in _PINNED_DEFAULTS[raw["kind"]]} == _PINNED_DEFAULTS[raw["kind"]]
        doc = json.loads(_schema_output())
        for f in rows:
            line = doc["config"].get(f.name) or doc[raw["kind"]].get(f.name) or ""
            if f.name in minimal:
                continue
            if f.default is cli.OPTIONAL:
                assert f.name not in cfg
            elif f.default is cli.UNIFORM:
                count = len(cfg["alpha"] if "alpha" in cfg else cfg["t"])
                assert cfg[f.name] == [f"1/{count}"] * count and "uniform" in line
            elif f.default is cli.ORIGIN:
                assert cfg[f.name] == ["0"] * len(cfg["alpha"][0]) and "origin" in line
            elif f.default is not cli.REQUIRED:
                assert cfg[f.name] == f.default
                assert f"default: {json.dumps(f.default)}" in line

    def test_nested_defaults(self):
        cfg = normalize_config(
            {
                "kind": "fourier",
                "measures": {"mu0": {"base": 4, "atoms": ["0", "1/2"]}},
                "zero_checks": [{"measure": "mu0", "pattern": "odd"}],
            }
        )
        assert cfg["measures"]["mu0"]["weights"] == ["1/2", "1/2"]
        assert cfg["zero_checks"][0]["k_max"] == 5 and cfg["zero_checks"][0]["m_max"] == 20
        doc = json.loads(_schema_output())["fourier"]
        assert f"k_max (largest k in 4^k (<= {cli.MAX_ZERO_K}); default: 5)" in doc["zero_checks fields"]


class TestBatch:
    def test_failing_jobs_are_contained(self, tmp_path, capsys):
        short_p = dict(_SHORT_P["stationary-support"], P=["1"])
        too_coarse = dict(WALK_CFG, precision=64)
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps([COND_CFG, short_p, COND_CFG, too_coarse]))
        out = tmp_path / "out"
        # the batch exits with its largest class: 3 (condition) over 2 (config)
        assert main(["run", str(cfg_path), "-o", str(out)]) == 3
        printed = capsys.readouterr().out.split()
        assert printed == [str(out / f"experiment_{i}" / "report.json") for i in (0, 2)]
        for i in (1, 3):
            assert not (out / f"experiment_{i}" / "report.json").exists()
        error = json.loads((out / "experiment_1" / "error.json").read_text())
        assert error["field"] == "P" and error["exit"] == 2 and "field 'P'" in error["message"]
        error = json.loads((out / "experiment_3" / "error.json").read_text())
        assert error["field"] is None and error["exit"] == 3

    def test_uncertifiable_digits_exit_three(self, tmp_path, capsys):
        # the sampled point is exactly 0, so no precision certifies its digits
        cfg = {"kind": "normality", "D": 3, "r": [1, 1], "t": ["0", "0"], "N": 200, "L": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "single")]) == 3
        # the message names the rational and advises no precision
        err = capsys.readouterr().err
        assert (
            "condition violated: digit 1 not certifiable at 413 bits: the orbit point lies "
            "within its certified error of a base-3 rational, and a higher precision helps "
            "only if it is not one"
        ) in err
        assert "raise precision" not in err
        cfg_path.write_text(json.dumps([cfg]))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "batch")]) == 3
        error = json.loads((tmp_path / "batch" / "experiment_0" / "error.json").read_text())
        assert error["field"] is None and error["exit"] == 3
        assert error["message"].startswith("digit 1 not certifiable")

    @pytest.mark.parametrize(
        "cfg, field, problem",
        [
            ({"kind": "condition-check", "condition": "walk", "D": [2], "alpha": ["1/3"]},
             "alpha", "need at least two maps"),
            ({"kind": "condition-check", "condition": "ifs", "D": 3, "r": [1], "t": ["1/3"]},
             "t", "need at least two maps"),
            ({"kind": "condition-check", "condition": "walk", "irrationals": ["sqrt2"],
              "D": [[[2, 1], [0, 2]], [[2, 0], [1, 2]]], "alpha": [["0", "0"], ["1*sqrt2", "0"]]},
             "D", "do not commute"),
            (dict(COND_CFG, D=[[1, 1], [0, 1]], t=[["0", "0"], ["2/3*sqrt2", "0"]]),
             "D", "is not expanding"),
        ],
    )
    def test_condition_refusals_name_the_field(self, tmp_path, capsys, cfg, field, problem):
        cfg_path = tmp_path / "batch.json"
        cfg_path.write_text(json.dumps([cfg]))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        error = json.loads((tmp_path / "out" / "experiment_0" / "error.json").read_text())
        assert error["field"] == field and error["exit"] == 2
        assert error["message"].startswith(f"field {field!r}: ") and problem in error["message"]

    def test_single_run_writes_no_error_file(self, tmp_path, capsys):
        _run_error(tmp_path, capsys, dict(WALK_CFG, N=0))
        assert not (tmp_path / "out").exists()
        # a run that fails in the library leaves nothing behind either
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(WALK_CFG, precision=64)))
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()


# (config, result field, value on the limit, value past it, detail past it)
_THRESHOLDS = [
    (WALK_CFG, "star_discrepancy", 0.02, 0.0201, "D* = 0.0201 (<= 0.02)"),
    (dict(SCHEMA_CFGS[1], N=500, control_q=2), "control_char", 0.9, 0.8999, "|S_N(2)| = 0.8999 (>= 0.9)"),
    (dict(SCHEMA_CFGS[2], N=200), "max_block_deviation", 0.02, 0.0201, "max block deviation = 0.0201 (<= 0.02)"),
    (dict(SCHEMA_CFGS[2], N=200), "star_discrepancy", 0.03, 0.0301, "D* = 0.0301 (<= 0.03)"),
    (dict(SCHEMA_CFGS[5], N=500), "state_freq_dev", 0.01, 0.0101, "max |freq - p| = 0.0101 (<= 0.01)"),
    (dict(SCHEMA_CFGS[5], N=500), "char_dev", 0.03, 0.0301, "max |emp - predicted| = 0.0301 (<= 0.03)"),
]


class TestCheckTable:
    @pytest.mark.parametrize("cfg, field, limit, past, detail", _THRESHOLDS, ids=lambda x: x if isinstance(x, str) else "")
    def test_threshold(self, cfg, field, limit, past, detail, tmp_path):
        report = run(cfg, tmp_path)
        name = next(row[1] for row in cli.CHECKS if row[:1] == (cfg["kind"],) and row[2] == field)

        def verdict(value):
            report["results"][field] = value
            return next(c for c in verify_report(report, cfg["kind"]) if c["check"] == name)

        assert verdict(limit)["pass"]
        assert verdict(past) == {"check": name, "pass": False, "detail": detail}

    def test_required_result_missing_is_a_schema_error(self, tmp_path):
        report = run(dict(SCHEMA_CFGS[2], N=200), tmp_path)
        del report["results"]["max_block_deviation"]
        with pytest.raises(KeyError):
            verify_report(report, "normality")


# Small valid configs, one per kind and condition, that the fuzz tests break.
_FUZZ_BASES = [
    dict(WALK_CFG, N=200),
    {
        "kind": "walk-sim",
        "irrationals": ["sqrt2"],
        "D": [[[0, -2], [1, 0]], [[2, 0], [0, 2]]],
        "alpha": [["0", "0"], ["1*sqrt2", "1/3"]],
        "N": 100,
        "K": 2,
    },
    dict(SCHEMA_CFGS[1], N=200),
    dict(SCHEMA_CFGS[2], N=60, P=["1/2", "1/2"], L=2),
    COND_CFG,
    SCHEMA_CFGS[4],
    dict(SCHEMA_CFGS[5], N=200, K=3),
    SCHEMA_CFGS[6],
    dict(FOURIER_CFG, dump_range=4, haar_range=8),
]

_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 12),
        st.floats(-20, 20),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.sampled_from(["", "x", "0", "1/3", "-1/2", "2//3", "1*sqrt2", "sqrt2", "auto", "odd", "walk", "mu0"]),
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["base", "atoms", "weights", "measure", "pattern", "mu0"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _broken_configs(draw):
    """A fuzz base with one or two fields changed: replaced by junk, by the
    same field of another base or by a small or negative integer, dropped,
    shortened, lengthened, emptied or wrapped in one more list level."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    rows = cli.COMMON + cli.FIELDS[cfg["kind"]] + cli.CONDITION_FIELDS.get(cfg.get("condition"), [])
    names = [f.name for f in rows if f.name != "kind"] + ["extra"]
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(names))
        value = cfg.get(name)
        others = [base[name] for base in _FUZZ_BASES if name in base]
        edit = draw(st.sampled_from(["junk", "other", "size", "drop", "shorten", "lengthen", "empty", "wrap"]))
        if edit == "drop":
            cfg.pop(name, None)
        elif edit == "other" and others:
            cfg[name] = json.loads(json.dumps(draw(st.sampled_from(others))))
        elif edit == "size":
            cfg[name] = draw(st.integers(-2, 12))
        elif edit in ("shorten", "lengthen", "empty", "wrap") and isinstance(value, list):
            cfg[name] = {"shorten": value[:-1], "lengthen": value + value[:1], "empty": [], "wrap": [value]}[edit]
        else:
            cfg[name] = draw(_JUNK)
    return cfg


class TestFuzzedRuns:
    @settings(max_examples=300, deadline=None)
    @given(_broken_configs())
    def test_runs_exit_cleanly(self, cfg):
        try:
            normalize_config(cfg)
            refused = None
        except ConfigError as exc:
            refused = exc
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            cfg_path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", str(cfg_path), "-o", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if refused is not None:
                assert code == 2 and not out.exists()
                assert refused.field and f"'{refused.field}'" in str(refused)

    @settings(max_examples=300, deadline=None)
    @given(
        _broken_configs()
        | st.fixed_dictionaries(
            {"kind": st.sampled_from(cli.KINDS)},
            optional={
                name: _JUNK
                for name in ["D", "alpha", "t", "r", "x0", "P", "N", "K", "L", "measures", "zero_checks"]
            },
        )
    )
    def test_normalize_raises_only_config_error(self, raw):
        try:
            normalize_config(raw)
        except ConfigError as exc:
            assert exc.field and f"'{exc.field}'" in str(exc)
