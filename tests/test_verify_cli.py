"""Verification suites, report emission, schemas, and the CLI surface."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import pushcrit as pc
from pushcrit import cli
from pushcrit.verify import run_suites, write_report

SCHEMA_DIR = Path(pc.__file__).parent / "schemas"


def _load_schema(name: str):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_DIR / name) as fh:
        schema = json.load(fh)
    validator_cls = jsonschema.validators.validator_for(schema)
    validator_cls.check_schema(schema)
    return validator_cls(schema)


def test_potentials_suite_passes():
    results = run_suites(("potentials",))
    assert len(results) == 8
    assert all(r.passed for r in results)


def test_fig6_suite_passes():
    assert all(r.passed for r in run_suites(("fig6",)))


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(("nonsense",))


def test_report_writing_and_schema(tmp_path):
    results = run_suites(("potentials", "fig6"))
    report = write_report(results, str(tmp_path))
    assert report["ok"]
    _load_schema("verify_report.schema.json").validate(report)
    for claim in report["claims"]:
        assert (tmp_path / claim["evidence_path"]).exists()
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert all("wall_time_ms" not in c for c in verdicts["claims"])


def test_certificate_and_report_schemas():
    cert_schema = _load_schema("certificate.schema.json")
    cert = pc.find_pushable_homomorphism(pc.directed_cycle(4), pc.directed_cycle(3))
    cert_schema.validate(cert.to_json_dict())
    cert_schema.validate({"result": "none", "nodes_explored": 12})
    crit_schema = _load_schema("criticality_report.schema.json")
    crit_schema.validate(pc.is_pushably_k_critical(pc.fixture("c_minus4"), 3).to_json_dict())
    rec_schema = _load_schema("enumeration_record.schema.json")
    for record in pc.find_critical(4):
        rec_schema.validate(record.to_json_dict())


# -- CLI ------------------------------------------------------------------------


def test_cli_color_c_minus4_no_certificate(tmp_path, capsys):
    fixture_file = Path(pc.__file__).parent / "fixtures" / "c_minus4.og"
    rc = cli.main(["color", "--target", "c3", str(fixture_file)])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert rc == cli.EXIT_PROPERTY_FAILS
    assert payload["result"] == "none" and payload["nodes_explored"] > 0


def test_cli_long_path_needs_no_recursion(tmp_path, capsys):
    path_file = tmp_path / "path.og"
    path_file.write_text(pc.serialize_graph(pc.directed_path(1500)))
    assert cli.main(["color", str(path_file)]) == cli.EXIT_OK
    assert "pushed" in json.loads(capsys.readouterr().out)
    assert cli.main(["--json", "critical", str(path_file)]) == cli.EXIT_PROPERTY_FAILS
    assert json.loads(capsys.readouterr().out)["verdict"] == "colorable"


def test_cli_color_fixture_reference(capsys):
    rc = cli.main(["color", "--target", "c3", "@m3p"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and "pushed" in payload


def test_cli_mad_text(capsys):
    rc = cli.main(["mad", "@e1"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "30/13"


def test_cli_girth_json(capsys):
    rc = cli.main(["--json", "girth", "@e2"])
    assert rc == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"girth": 6}


def test_cli_critical(capsys):
    rc = cli.main(["critical", "--k", "3", "@f"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "critical"
    rc = cli.main(["critical", "--k", "3", "@c3"])
    assert rc == cli.EXIT_PROPERTY_FAILS


def test_cli_chromatic(capsys):
    rc = cli.main(["--json", "chromatic", "--kind", "push", "@c_minus4"])
    assert rc == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == 4
    rc = cli.main(["chromatic", "--kind", "oriented", "@c_minus4"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "4"
    rc = cli.main(["--json", "chromatic", "--kind", "oriented", "--k", "3", "@c_minus4"])
    assert rc == cli.EXIT_PROPERTY_FAILS
    assert json.loads(capsys.readouterr().out)["value"] is None
    rc = cli.main(["chromatic", "--kind", "oriented", "--k", "3", "@c_minus4"])
    assert rc == cli.EXIT_PROPERTY_FAILS
    assert capsys.readouterr().out.strip() == "none"


def test_cli_canon_hex_lines(capsys):
    rc = cli.main(["canon", "@e1", "@e2", "@e3"])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and len(set(lines)) == 3
    assert all(set(line) <= set("0123456789abcdef") for line in lines)


def test_cli_canon_large_group(tmp_path, capsys):
    # five disjoint directed triangles: |Aut| = 6^5 * 5!, which the form
    # never enumerates
    g = pc.OrientedGraph(
        15, tuple((3 * c + i, 3 * c + (i + 1) % 3) for c in range(5) for i in range(3))
    )
    path = tmp_path / "five_triangles.og"
    path.write_text(pc.serialize_graph(g))
    rc = cli.main(["canon", str(path)])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out == pc.canonical_form(g).hex() + "\n"


def test_cli_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.og"
    bad.write_text("0 1\n1 0\n")
    rc = cli.main(["info", str(bad)])
    assert rc == cli.EXIT_USAGE


def test_cli_unknown_fixture_is_usage(capsys):
    rc = cli.main(["info", "@nope"])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown fixture 'nope'" in err
    with pytest.raises(KeyError):  # still a KeyError for lookup callers
        pc.fixture("nope")
    with pytest.raises(pc.PushcritError):
        pc.fixture("nope")


def test_cli_crash_is_an_internal_error(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_info", crash)
    rc = cli.main(["info", "@c3"])
    assert rc == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["pushcrit: internal error: RuntimeError: boom"]
    assert "Traceback" not in err


def test_cli_discharge_unclassifiable(capsys):
    rc = cli.main(["discharge", "@c3"])
    assert rc == cli.EXIT_USAGE


def test_cli_budget_exhaustion(capsys):
    rc = cli.main(["color", "--target", "c3", "--budget-nodes", "2", "@e1"])
    assert rc == cli.EXIT_BUDGET


def test_cli_enumerate_and_bound(tmp_path, capsys):
    rc = cli.main(["--json", "enumerate", "--max-n", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert any(r["exception"] == "c_minus4" for r in payload["records"])
    rc = cli.main(["--json", "verify-bound", "--max-n", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["ok"]


def test_cli_progress_goes_to_stderr(capsys):
    rc = cli.main(["--json", "verify-bound", "--max-n", "5"])
    plain = capsys.readouterr()
    assert rc == cli.EXIT_OK and plain.err == ""
    rc = cli.main(["--json", "verify-bound", "--max-n", "5", "--progress"])
    shown = capsys.readouterr()
    assert rc == cli.EXIT_OK and shown.out == plain.out
    lines = shown.err.splitlines()
    # one "n done/total" line per scanned candidate, ending each size
    assert lines[0] == "3 1/1" and lines[-1].startswith("5 ")
    totals = {}
    for line in lines:
        n, frac = line.split()
        done, total = map(int, frac.split("/"))
        assert done == totals.get(n, 0) + 1 <= total
        totals[n] = done
    assert totals == {
        str(n): len(list(pc.enumerate_underlying(n, 2, forbid_k4=n >= 5)))
        for n in (3, 4, 5)
    }
    rc = cli.main(["enumerate", "--max-n", "4", "--progress"])
    assert rc == cli.EXIT_OK and capsys.readouterr().err.splitlines()[-1] == "4 3/3"


def test_cli_wall_budget_exhaustion(capsys):
    for verb in ("enumerate", "verify-bound"):
        rc = cli.main([verb, "--max-n", "6", "--budget-seconds", "1e-9"])
        assert rc == cli.EXIT_BUDGET
        assert "budget exhausted" in capsys.readouterr().err
        rc = cli.main([verb, "--max-n", "6", "--budget-seconds", "0"])
        assert rc == cli.EXIT_USAGE


def test_cli_lpq(capsys):
    rc = cli.main(["--json", "lpq", "--p", "2", "--q", "1", "--variant", "oriented", "@at_c3"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["span"] <= 7


def test_cli_verify_paper_subset(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    rc = cli.main(["--json", "verify-paper", "--suite", "potentials", "--out", out_dir])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["ok"]
    assert os.path.exists(os.path.join(out_dir, "report.json"))


def test_cli_extract_critical(capsys):
    rc = cli.main(["--json", "extract-critical", "@c_minus4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["vertices"] == 4
    rc = cli.main(["extract-critical", "@c3"])
    assert rc == cli.EXIT_PROPERTY_FAILS


def test_cli_info(capsys):
    rc = cli.main(["info", "@f"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert payload["vertices"] == 12 and payload["potential"] == -2


def test_cli_shards_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PUSHCRIT_SHARDS", str(tmp_path / "sh"))
    rc = cli.main(["--json", "enumerate", "--max-n", "4"])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "sh" / "4" / "CURSOR").exists()


def test_cli_text_and_json_verdicts_agree(capsys):
    cli.main(["critical", "--k", "3", "@e2"])
    text = capsys.readouterr().out.strip()
    cli.main(["--json", "critical", "--k", "3", "@e2"])
    payload = json.loads(capsys.readouterr().out)
    assert text == payload["verdict"] == "critical"


def test_cli_verify_paper_reports_identical_across_jobs(tmp_path, capsys):
    outs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        out_dir = tmp_path / sub
        rc = cli.main(
            ["--json", "verify-paper", "--suite", "potentials", "--suite", "fig6",
             "--jobs", jobs, "--out", str(out_dir)]
        )
        capsys.readouterr()
        assert rc == cli.EXIT_OK
        outs.append((out_dir / "verdicts.json").read_bytes())
    assert outs[0] == outs[1]


def test_cli_nonpositive_budget_is_usage_error(capsys):
    rc = cli.main(["color", "--target", "c3", "--budget-nodes", "0", "@c3"])
    assert rc == cli.EXIT_USAGE
