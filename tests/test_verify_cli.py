"""Verification suites, report emission, schemas, and the CLI surface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pushcrit as pc
from pushcrit import cli
from pushcrit.hom import AT_C3
from pushcrit.reconstruct import verify_fig6_coloring, verify_split_vertex_reconstructions
from pushcrit.verify import run_suites, write_report

SCHEMA_DIR = Path(pc.__file__).parent / "schemas"


def _load_schema(name: str):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_DIR / name) as fh:
        schema = json.load(fh)
    validator_cls = jsonschema.validators.validator_for(schema)
    validator_cls.check_schema(schema)
    return validator_cls(schema)


def test_python_m_pushcrit_runs_the_cli():
    package_root = os.path.dirname(os.path.dirname(pc.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "pushcrit", "--json", "mad", "@e1"],
        env=dict(os.environ, PYTHONPATH=package_root), capture_output=True, text=True,
    )
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stdout == '{"denominator": 13, "numerator": 30}\n'


def test_potentials_suite_passes():
    results = run_suites(("potentials",))
    assert len(results) == 8
    assert all(r.passed for r in results)


def test_fig6_suite_passes():
    assert all(r.passed for r in run_suites(("fig6",)))


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(("nonsense",))
    with pytest.raises(pc.PushcritError, match="unknown suite 'nonsense'"):
        run_suites(("nonsense",))


def test_an_empty_suite_list_is_a_config_error():
    # a report that checks nothing would read ok
    for names in ((), []):
        with pytest.raises(pc.ConfigError, match="no suite named"):
            run_suites(names)


# the sha256 of every evidence file of `verify-paper --suite all`, in
# claim order, and of its verdicts.json
VERIFY_PAPER_EVIDENCE = {
    "potential.k1": "7e31e4c46b26edce6ac02b0c7e18b0fc868cdc2eb8c8ab40eb94774eb347c6a2",
    "potential.k2": "b17d83faa2b3f6d1d5a60bf94b4d444b9b7be45f64ffe512c79734f143c1acbe",
    "potential.k3": "14640efec912d08153190c6317f983aa049f88d88780a2457958a73251f4dc58",
    "potential.k3_minus_e": "7a22a087757b20624296170d785cbe8fe6f2a2bc7d568549ebd0492a114b4be3",
    "potential.c_minus4": "0191573bff3cde77cf064a468c4db001f839183481fdcccb1639f51303f193c6",
    "potential.e1": "6b051d4d237eac5991582d7066e389803623f11ad446e2000fce3c5f9c8e534f",
    "potential.e2": "212312c9a7d0787e186ce42e0260fcd36a5acf94fad4eb88a310bcf0084be462",
    "potential.e3": "dd54923f217d73b50a84f02482bcfb1f239a8565f36d1acd6d4cc54e35c866b8",
    "config.C1": "1de3b70d227fe38f81b19a81d5e35d53a443da694c5d3891090eb0ec526ae972",
    "config.C2": "2c84ad0bbd542861c7999fd3c8339a7fea98ffbbda0cb2a25a567a7fc76ff1bb",
    "config.C3": "a84c2655db8b9023e228579b360dfe7b5c0385c4751fe36132b9dc47c73a1dab",
    "config.C4": "9c9c20207af27e8f9063d16b848d5cc03025017eec605fb6d10e4178260e8221",
    "config.C5": "8fa6029efc713e7f717a3c63d3a7ca14a939fc9b8c2e3b74c4ae30da7e7aeae1",
    "config.C6": "192aca931ae35efc15ca4aef518f2653bd2029d8b34eaeb1df0270cbf64e4c3d",
    "config.C7": "06d22eb6be9697d71e6171ec3d24bbd62870791ba50b7f826a6b132e415943bf",
    "config.C8": "21206a76161e1594319e1d4e193434d4eb49697c41eed7206ad9ad7102bd5415",
    "config.C9": "21bb07de9d404661fb6e769c124b923ce4e5aceb7575f44a2c5c83d8ed9c8397",
    "config.C10": "f67fe4aa3441fb25870ebbe59e2b769c36eb476a5c66084adb0360a7d6df8b0d",
    "config.C11": "63e4c46d09ad7b8132b9e6d6a7a0e40bf1fdd08dbbb3c785224d072e15da7b81",
    "config.C12": "ac20e2ef702fcf0c7b7813a948502eb56543c8109245dab4d3942418c9771431",
    "config.C13": "8bb7e1b611001a6bdd70160db19e5c2aa4ac34248de858c924e390eeb91af4e0",
    "config.C14": "22c28842dadb8932be7953769fefaed800752e1ae4475735165a877d7c066fd8",
    "config.C15": "21315aaca67a34fc8c089d89d8cd52a3e63bbe053a3ac2bd7585b986d1effa0a",
    "config.C16": "ff2cb1cc27eff39f81faa76565f5d671ef739d8c0fc0601d94fe08c9000bdee3",
    "config.negative_control": "08091c23a200380e46e867a5051692f147fa583f5dea17754aea33487ed17392",
    "config.proof_level_notes": "ab3c7d525aab43c1b727e176bd1277cd405ed3a5bdf33abd57571543b205a990",
    "critical.c_minus4": "33f46ff0087737c0b9826b1c86d8ed75e054503a2ded8431fa990b1130965be9",
    "critical.e1": "e3190051ca58dca5e36ec61fa540edd06ca62dbc47fcbbdf5ebf3d9c20dc5991",
    "critical.e2": "253025b365569445818fb65c1354981bcc813db00a70fedc4b8e162a07a15780",
    "critical.e3": "2831cbf6e1beb7b32542e822525d0da7755fac37fc7872ff338456b09d921315",
    "critical.f": "d20702422174b62aef590c72df62d6be670b6e34230fef2bd820ae92f79cba50",
    "reconstruction.e1": "633abcfb654f46f010bc3ee0655338bf6b58f5e6b658d3a5d5d2273b0cca9b05",
    "reconstruction.e2": "0fbd12fb49ff73914e8b1a7d574cc6061266d94af791ba3f3a5bdd5dbf43b307",
    "reconstruction.e3": "a88a6c3215d7bde7cbb2044be12e1e6f1b5849570657990175ba8091a824c9ec",
    "fig6.coloring": "f971dec09f2fd04634ac70bfa2bc76f02ae412b8c67b3e98bbc51eaaf747b76b",
    "lpq.builtin_labelings": "0d9defcaec702df06dd77783d8dab8134bf5e21653fe3c17122ec2191667ab72",
    "lpq.span_2_1": "f7f2cf8567aa2dfc2ff5efe3c91e95c121ff42d6460abb40db0c22986f823910",
    "discharge.fixtures": "df9d79f471648e7ec36a5ab8afa672a93f11b77c70ec6ed0b8b72b7ea39ad506",
    "discharge.random": "6522f4daa2dea49807b58654c1a5f32573ff0e9278bb38356e8b14ac12f350b0",
}
VERIFY_PAPER_VERDICTS = "63afcfad6bc9ad6d74a5ec69a6483ff8fd8e2b1064df85c5ad17a5c3525e4ba2"


def test_the_verify_paper_tree_is_pinned(tmp_path, capsys):
    out_dir = tmp_path / "run"
    rc = cli.main(["--json", "verify-paper", "--suite", "all", "--out", str(out_dir)])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    verdicts = json.loads((out_dir / "verdicts.json").read_text(encoding="utf-8"))
    claims = [c["claim"] for c in verdicts["claims"]]
    assert len(set(claims)) == len(claims)
    assert claims == list(VERIFY_PAPER_EVIDENCE)
    files = {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out_dir.rglob("*")
        if p.is_file()
    }
    assert files.pop("report.json")
    assert files.pop("verdicts.json") == VERIFY_PAPER_VERDICTS
    assert files == {
        f"evidence/{claim}/evidence.json": digest
        for claim, digest in VERIFY_PAPER_EVIDENCE.items()
    }


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
    colorable = pc.is_pushably_k_critical(pc.fixture("m3p"), 3).to_json_dict()
    assert colorable["verdict"] == "colorable" and "certificate" in colorable
    crit_schema.validate(colorable)
    # a pendant arc on c_minus4: deleting it leaves c_minus4, still uncolorable
    c_minus4 = pc.fixture("c_minus4")
    pendant = pc.OrientedGraph(5, c_minus4.arcs + ((3, 4),))
    non_minimal = pc.is_pushably_k_critical(pendant, 3).to_json_dict()
    assert non_minimal == {"verdict": "non_minimal", "k": 3, "failing_arc": [3, 4]}
    crit_schema.validate(non_minimal)
    rec_schema = _load_schema("enumeration_record.schema.json")
    for record in pc.find_critical(4):
        rec_schema.validate(record.to_json_dict())
    # every field is required, arcs are no null, and every record is critical
    bare = pc.EnumerationRecord("ff", 4, 4, True, 8, False)
    for d in (
        bare.to_json_dict(),
        {k: v for k, v in bare.to_json_dict().items() if k not in ("exception", "arcs")},
        {**record.to_json_dict(), "critical": False},
    ):
        assert not rec_schema.is_valid(d)


def test_results_serialize_to_plain_json():
    # to_json_dict is the fields as JSON data: nothing changes through
    # json, so no tuple is left for a schema's "array" to refuse
    records = pc.find_critical(8)
    fake = pc.EnumerationRecord("ff", 4, 4, True, 8, False, None, ((0, 1),))
    flagged = pc.verify_density_bound([*records, fake])
    assert flagged.to_json_dict()["violators"] == [fake.to_json_dict()]
    results = [*records, pc.verify_density_bound(records), flagged]
    for name in ("at_c3", "e1", "e2", "e3", "f", "m3p"):
        results.append(pc.discharging_audit(pc.fixture(name)))
    results += verify_split_vertex_reconstructions()
    results.append(verify_fig6_coloring())
    for result in results:
        d = result.to_json_dict()
        assert json.loads(json.dumps(d)) == d, type(result).__name__
    assert {type(r).__name__ for r in results} == {
        "EnumerationRecord",
        "DensityBoundReport",
        "DischargingReport",
        "ReconstructionInventory",
        "DrawnColoringReport",
    }


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


def test_cli_color_onto_a_target_file_above_sixty_vertices(tmp_path, capsys):
    cycle = pc.directed_cycle(31)
    target, graph = tmp_path / "c31.og", tmp_path / "relabeled.og"
    target.write_text(pc.serialize_graph(cycle))
    graph.write_text(pc.serialize_graph(cycle.relabel([(7 * v) % 31 for v in range(31)])))
    rc = cli.main(["color", "--target", str(target), str(graph)])
    assert rc == cli.EXIT_OK and "pushed" in json.loads(capsys.readouterr().out)


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


def test_cli_canon_json_is_one_object(tmp_path, capsys):
    rc = cli.main(["canon", "@e1", "@e2", "@e3"])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rc = cli.main(["--json", "canon", "@e1", "@e2", "@e3"])
    assert rc == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"codes": lines}
    # every graph loads before any code is printed
    rc = cli.main(["canon", "@e1", str(tmp_path / "missing.og")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


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


def test_cli_discharge(capsys):
    rc = cli.main(["discharge", "@e2"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert payload == pc.discharging_audit(pc.fixture("e2")).to_json_dict()
    assert payload["total_initial"] == payload["total_final"] == 0


def _pushed_image_arcs(g, payload):
    """The arcs of ``g``, pushed and mapped as the certificate ``payload`` says."""
    pushed = pc.push_vertices(g, payload["pushed"])
    return {(payload["map"][str(u)], payload["map"][str(v)]) for u, v in pushed.arcs}


def test_cli_color_onto_atc3_and_c2(tmp_path, capsys):
    rc = cli.main(["color", "--target", "atc3", "@m3p"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert _pushed_image_arcs(pc.fixture("m3p"), payload) <= AT_C3.arc_set
    assert cli.main(["color", "--target", "atc3", "@c_minus4"]) == cli.EXIT_PROPERTY_FAILS
    assert json.loads(capsys.readouterr().out)["result"] == "none"
    # pushing keeps a 4-cycle's forward parity: the directed 4-cycle (even)
    # maps onto one arc, c_minus4 (odd) does not
    cycle = tmp_path / "c4.og"
    cycle.write_text(pc.serialize_graph(pc.directed_cycle(4)))
    assert cli.main(["color", "--target", "c2", str(cycle)]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert _pushed_image_arcs(pc.directed_cycle(4), payload) == {(0, 1)}
    assert cli.main(["color", "--target", "c2", "@c_minus4"]) == cli.EXIT_PROPERTY_FAILS
    assert json.loads(capsys.readouterr().out)["result"] == "none"


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
        str(n): len(list(pc.enumerate_underlying(n, forbid_k4=n >= 5)))
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


def test_a_repeated_suite_runs_once(tmp_path, capsys):
    lpq = [r.claim for r in run_suites(("lpq",))]
    fig6 = [r.claim for r in run_suites(("fig6",))]
    assert [r.claim for r in run_suites(("lpq", "lpq"))] == lpq
    assert [r.claim for r in run_suites(("fig6", "lpq", "fig6"))] == fig6 + lpq
    out_dir = tmp_path / "run"
    args = ["--json", "verify-paper", "--suite", "lpq", "--suite", "lpq", "--out", str(out_dir)]
    rc = cli.main(args)
    assert rc == cli.EXIT_OK and json.loads(capsys.readouterr().out)["ok"]
    verdicts = json.loads((out_dir / "verdicts.json").read_text(encoding="utf-8"))
    assert [c["claim"] for c in verdicts["claims"]] == lpq


def test_cli_extract_critical(capsys):
    rc = cli.main(["--json", "extract-critical", "@c_minus4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK and payload["vertices"] == 4
    rc = cli.main(["extract-critical", "@c3"])
    assert rc == cli.EXIT_PROPERTY_FAILS


def test_cli_failed_self_check_is_an_internal_error(capsys, monkeypatch):
    # SelfCheckError is a PushcritError, but not a usage error (exit 2)
    monkeypatch.setattr(
        pc.crit,
        "is_pushably_k_critical",
        lambda g, k: pc.crit.CriticalityReport(pc.crit.VERDICT_NON_MINIMAL, k),
    )
    rc = cli.main(["extract-critical", "@c_minus4"])
    assert rc == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_cli_info(capsys):
    rc = cli.main(["info", "@f"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert payload["vertices"] == 12 and payload["potential"] == -2


def test_cli_the_shards_variable_names_no_directory(tmp_path, capsys, monkeypatch):
    # --shards is the one way to name a shard directory
    monkeypatch.setenv("PUSHCRIT_SHARDS", str(tmp_path / "sh"))
    rc = cli.main(["verify-bound", "--max-n", "4", "--resume"])
    assert rc == cli.EXIT_USAGE and "shard directory" in capsys.readouterr().err
    assert not (tmp_path / "sh").exists()


def test_cli_resume_without_shards_is_usage_error(capsys):
    for verb in ("enumerate", "verify-bound"):
        rc = cli.main([verb, "--max-n", "4", "--resume"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_USAGE and "PASS" not in captured.out
        assert "shard directory" in captured.err


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


def test_nonpositive_jobs_are_config_errors(capsys):
    for jobs in (0, -5, 1.5, True):
        with pytest.raises(pc.ConfigError):
            run_suites(("potentials",), jobs=jobs)
    rc = cli.main(["verify-bound", "--max-n", "4", "--jobs", "0"])
    assert rc == cli.EXIT_USAGE and "PASS" not in capsys.readouterr().out


def test_cli_nonpositive_budget_is_usage_error(capsys):
    rc = cli.main(["color", "--target", "c3", "--budget-nodes", "0", "@c3"])
    assert rc == cli.EXIT_USAGE
