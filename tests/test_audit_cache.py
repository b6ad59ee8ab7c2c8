"""``scripts/audit_cache.py``: the operator's cache report and the JSON that
the campaign CLI's ``--audit-json`` embeds in a journal header.

Every artifact is reported ``valid``, ``corrupt`` or ``missing``; the exit
status follows ``--strict`` / ``--fail-on-corrupt``."""

from __future__ import annotations

import importlib.util
import json

import pytest

from polygraphmr.campaign import JOURNAL_NAME, CampaignJournal
from polygraphmr.campaign import main as campaign_main
from polygraphmr.faults import corrupt_file_truncate

from .conftest import REPO_ROOT, SEED_CACHE

_spec = importlib.util.spec_from_file_location("audit_cache", REPO_ROOT / "scripts" / "audit_cache.py")
audit_cache = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit_cache)

STATUSES = {"valid", "corrupt", "missing"}


def _audit_json(capsys, root) -> dict:
    capsys.readouterr()
    assert audit_cache.main(["--cache", str(root), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _truncate_org_probs(root) -> str:
    path = root / "tinynet" / "ORG.val.probs.npz"
    corrupt_file_truncate(path, path, keep_fraction=0.3, seed=4)
    return str(path)


class TestAuditJson:
    def test_json_reports_only_valid_corrupt_and_missing(self, synthetic_cache, capsys):
        d = _audit_json(capsys, synthetic_cache)
        assert set(d["totals"]) == STATUSES
        model = d["models"]["tinynet"]
        assert STATUSES <= set(model) and "salvaged" not in model
        assert {rec["status"] for rec in model["records"]} <= STATUSES
        assert d["totals"] == {s: model[s] for s in STATUSES}

    def test_seed_cache_totals_are_pinned(self, capsys):
        assert _audit_json(capsys, SEED_CACHE)["totals"] == {"valid": 0, "corrupt": 536, "missing": 43}

    def test_totals_land_in_a_campaign_header_as_printed(self, synthetic_cache, tmp_path, capsys):
        _truncate_org_probs(synthetic_cache)
        totals = _audit_json(capsys, synthetic_cache)["totals"]
        assert totals["corrupt"] == 1
        audit_path = tmp_path / "audit.json"
        assert audit_cache.main(["--cache", str(synthetic_cache), "--json"]) == 0
        audit_path.write_text(capsys.readouterr().out)

        out = tmp_path / "out"
        args = ["--cache", str(synthetic_cache), "--out", str(out), "--trials", "1", "--audit-json", str(audit_path)]
        assert campaign_main(args) == 0
        capsys.readouterr()
        assert CampaignJournal(out / JOURNAL_NAME).read()[0]["audit"] == totals


class TestAuditExitStatus:
    @pytest.mark.parametrize(
        ("flags", "corrupt", "code"),
        [
            ([], False, 0),
            ([], True, 0),
            (["--strict"], False, 1),  # the synthetic roster leaves stems missing
            (["--fail-on-corrupt"], False, 0),
            (["--fail-on-corrupt"], True, 1),
        ],
    )
    def test_gates(self, synthetic_cache, capsys, flags, corrupt, code):
        if corrupt:
            _truncate_org_probs(synthetic_cache)
        assert audit_cache.main(["--cache", str(synthetic_cache), *flags]) == code
        capsys.readouterr()

    def test_a_root_without_model_directories_exits_2(self, tmp_path, capsys):
        assert audit_cache.main(["--cache", str(tmp_path)]) == 2
        assert "no model directories found" in capsys.readouterr().err

    def test_allow_salvaged_is_refused_as_unknown(self, synthetic_cache, capsys):
        with pytest.raises(SystemExit) as exc_info:
            audit_cache.main(["--cache", str(synthetic_cache), "--allow-salvaged"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --allow-salvaged" in capsys.readouterr().err


class TestAuditTable:
    def test_columns_and_total_row_match_the_json(self, synthetic_cache, capsys):
        totals = _audit_json(capsys, synthetic_cache)["totals"]
        assert audit_cache.main(["--cache", str(synthetic_cache)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["model", "valid", "corrupt", "missing", "usable", "stems"]
        total = next(line for line in lines if line.startswith("TOTAL")).split()
        assert total[1:] == [str(totals["valid"]), str(totals["corrupt"]), str(totals["missing"])]

    def test_quarantined_files_are_listed_with_their_reason(self, synthetic_cache, capsys):
        path = _truncate_org_probs(synthetic_cache)
        assert audit_cache.main(["--cache", str(synthetic_cache)]) == 0
        out = capsys.readouterr().out
        assert "quarantined (1):" in out
        listed = out.split("quarantined (1):", 1)[1].strip()
        assert listed.startswith("[") and listed.endswith(f"] {path}")
