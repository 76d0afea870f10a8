"""``tools/paper_numbers.py``: the analytic paper numbers one tree prints for a base-vs-head diff."""

from __future__ import annotations

import json
import sys

import paper_numbers


def test_prints_sorted_json_of_the_pinned_numbers(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert paper_numbers.main([]) == 0
    out = capsys.readouterr().out
    numbers = json.loads(out)
    assert out == json.dumps(numbers, indent=2, sort_keys=True) + "\n"
    assert set(numbers) == {"figure5", "figure6", *paper_numbers.COST_MODELS}
    assert numbers["cost_1920x1080"]["base_dnn"] == 23_573_575_680
    assert numbers["cost_1920x1080"]["dc_xxlarge"] == 2_305_843_232
    assert numbers["cost_2048x850_crop0.59"]["mc_localized"] == 59_654_344
    assert set(numbers["figure6"]) == {
        "equivalent_mcs_full_frame",
        "equivalent_mcs_localized",
        "equivalent_mcs_windowed",
    }


def test_refuses_a_repro_imported_from_another_tree(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert paper_numbers.main(["--src", str(tmp_path)]) == 1
    assert "not from" in capsys.readouterr().err
