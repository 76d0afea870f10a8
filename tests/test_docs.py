"""Docs-consistency guarantees, enforced by the tier-1 suite.

Mirrors ``tools/check_docs.py`` (which CI also runs as a standalone step):
every ``src/repro/*`` package must appear in ``docs/ARCHITECTURE.md``,
every python snippet in the README / docs must parse, and every dotted
``repro.…`` name in them must resolve.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import default_pipeline_factory

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_all_packages_documented():
    assert check_docs.check_architecture_coverage() == []


def test_known_packages_discovered():
    packages = check_docs.repro_packages()
    assert "fleet" in packages
    assert "core" in packages
    assert "control" in packages
    assert "events" in packages
    assert len(packages) >= 12


def test_required_docs_exist():
    assert check_docs.check_required_docs() == []


def test_control_modules_documented():
    assert check_docs.check_control_coverage() == []
    modules = check_docs.control_modules()
    assert {"loop", "policies", "shedding", "uplink", "migration", "trace"} <= set(modules)


def test_accuracy_doc_required_and_names_its_modules():
    assert "ACCURACY.md" in check_docs.REQUIRED_DOCS
    assert check_docs.check_accuracy_coverage() == []
    assert set(check_docs.ACCURACY_MODULES) == {
        "repro.fleet.accuracy",
        "repro.control.trace",
        "repro.control.value",
    }


def test_obs_modules_documented():
    assert "OBSERVABILITY.md" in check_docs.REQUIRED_DOCS
    assert check_docs.check_obs_coverage() == []
    modules = check_docs.obs_modules()
    assert {"trace", "timeline", "slo", "profile", "alerts", "incident"} <= set(modules)
    assert set(check_docs.OBS_REQUIRED_MODULES) == {
        "repro.obs.alerts",
        "repro.obs.incident",
    }


def test_obs_required_modules_pinned(tmp_path):
    """The explicit pin catches a doc that names every auto-discovered module
    except the explainability layer (e.g. after an obs-package reshuffle)."""
    doc = tmp_path / "OBSERVABILITY.md"
    doc.write_text(
        "\n".join(f"repro.obs.{name}" for name in check_docs.obs_modules() if name != "alerts")
        + "\nrepro.obs.incident\n",
        encoding="utf-8",
    )
    problems = check_docs.check_obs_coverage(doc)
    assert any("repro.obs.alerts" in p for p in problems)
    # ... but no duplicate complaint from the two checks overlapping.
    assert sum("repro.obs.alerts" in p for p in problems) == 1


def test_hierarchy_modules_documented():
    assert check_docs.check_hierarchy_coverage() == []
    assert set(check_docs.HIERARCHY_MODULES) == {
        "repro.control.hierarchy",
        "repro.fleet.camera",
        "repro.fleet.sharding",
    }
    # Auto-discovery also sees the new control module, so CONTROL.md is
    # doubly pinned against a rename of the hierarchy plane.
    assert "hierarchy" in check_docs.control_modules()


def test_batched_modules_documented():
    assert check_docs.check_batched_coverage() == []
    assert set(check_docs.BATCHED_MODULES) == {
        "repro.nn.batched",
        "repro.core.batched",
        "repro.fleet.runtime",
    }
    assert set(check_docs.MEMORY_MODULES) == {"repro.nn.layers", "repro.features.extractor"}


def test_memory_per_camera_table_matches_the_default_pipeline():
    """FLEET.md's per-camera figures are what ``default_pipeline_factory`` builds."""
    rows = re.findall(
        r"^\| (\d+)×(\d+) \| ([\d.]+) MB \| ([\d.]+) MB \|$",
        check_docs.FLEET_DOC.read_text(encoding="utf-8"),
        flags=re.MULTILINE,
    )
    assert len(rows) == 4
    factory = default_pipeline_factory()
    for width, height, weights_mb, cache_mb in rows:
        spec = CameraSpec("cam", width=int(width), height=int(height), frame_rate=10.0, num_frames=1)
        session = factory(spec)
        extractor = session.extractor
        weights = 8 * sum(mc.num_parameters() for mc in session.microclassifiers)
        cache = 8 * extractor.cache_size * sum(
            int(np.prod(extractor.layer_shape(layer))) for layer in extractor.tap_layers
        )
        assert round(weights / 1e6, 2) == float(weights_mb), (width, height)
        assert round(cache / 1e6, 2) == float(cache_mb), (width, height)


def test_events_modules_documented():
    assert "EVENTS.md" in check_docs.REQUIRED_DOCS
    assert check_docs.check_events_coverage() == []
    modules = check_docs.events_modules()
    assert {"broker", "outbox", "ingest", "plane"} <= set(modules)
    # The delivery story spans packages: the record/identity schema and the
    # shared-uplink transport integration are pinned by name.
    assert set(check_docs.EVENTS_REQUIRED_MODULES) == {
        "repro.core.events",
        "repro.fleet.sharding",
    }


def test_events_required_modules_pinned(tmp_path):
    """A doc naming every repro.events module but not the cross-package
    pins must still fail the events coverage check."""
    doc = tmp_path / "EVENTS.md"
    doc.write_text(
        "\n".join(f"repro.events.{name}" for name in check_docs.events_modules())
        + "\n",
        encoding="utf-8",
    )
    problems = check_docs.check_events_coverage(doc)
    assert any("repro.core.events" in p for p in problems)
    assert any("repro.fleet.sharding" in p for p in problems)


def test_doc_snippets_parse():
    assert check_docs.check_snippets() == []


def test_dotted_names_in_docs_resolve():
    assert check_docs.check_dotted_names() == []


def test_stale_dotted_name_is_flagged(tmp_path):
    """A doc naming a module, class or method that is not there fails the reverse check."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro.core.pipeline.PipelineResult` and `repro.fleet` and\n"
        "repro.StreamingPipeline and repro.fleet.runtime.FleetRuntime.run resolve.\n"
        "\n"
        "repro.baselines.full_dnn is gone, repro.features.extractor.prime is a method,\n"
        "and repro.nosuchpackage never existed.\n",
        encoding="utf-8",
    )
    problems = check_docs.check_dotted_names([doc])
    assert len(problems) == 3
    assert problems[0].startswith("doc.md:4: repro.baselines.full_dnn does not resolve")
    assert problems[1].startswith("doc.md:4: repro.features.extractor.prime does not resolve")
    assert problems[2].startswith("doc.md:5: repro.nosuchpackage does not resolve")


def test_attribute_references_in_docs_resolve():
    assert check_docs.check_attribute_references() == []


def test_stale_attribute_is_flagged(tmp_path):
    """A backticked ``Class.attr`` naming no member fails, with or without a module path."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`CameraLiveStats.threshold` and `FleetRuntime.camera_live_stats()` are there;\n"
        "`CameraLiveStats.slo` is not,\n"
        "nor is `repro.fleet.runtime.CameraLiveStats.queue_depth`.\n",
        encoding="utf-8",
    )
    problems = check_docs.check_attribute_references([doc])
    assert problems == [
        "doc.md:2: `CameraLiveStats.slo`: 'slo' is not an attribute of CameraLiveStats",
        "doc.md:3: `repro.fleet.runtime.CameraLiveStats.queue_depth`: 'queue_depth' is not "
        "an attribute of CameraLiveStats",
    ]


def test_class_names_in_docs_resolve():
    assert check_docs.check_class_names() == []


def test_stale_class_name_is_flagged(tmp_path):
    """A bare backticked CamelCase name that is no class fails; constants and fences do not."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`NodeControlPlane`, `RunRecord`, `ValueError` and `NamedTuple` are classes;\n"
        "`N`, `DROP_OLDEST` and `NodeAggregate(...)` are not bare class names;\n"
        "`EdgeCoordinator` names no class.\n"
        "```text\n"
        "`EdgeCoordinator` in a fence is not prose\n"
        "```\n",
        encoding="utf-8",
    )
    assert check_docs.check_class_names([doc]) == [
        "doc.md:3: `EdgeCoordinator` is not a class under src/repro/ or tests/"
    ]


def test_base_class_attribute_resolves(tmp_path):
    """A member inherited from a repro base class resolves on the subclass."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`LoadAwarePlacement.place` (from `PlacementPolicy`) and\n"
        "`LoadAwarePlacement.name` (its own) resolve;\n"
        "`LoadAwarePlacement.tick_index` does not.\n",
        encoding="utf-8",
    )
    problems = check_docs.check_attribute_references([doc])
    assert [p.split(":")[1] for p in problems] == ["3"]


def test_fence_info_strings_do_not_derail_parser(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        '```python title="listing 1"\nx = 1\n```\n\ntext\n\n```python\ndef broken(:\n```\n',
        encoding="utf-8",
    )
    snippets = check_docs.extract_python_snippets(doc)
    assert len(snippets) == 2  # the info-string block still counts as python
    assert snippets[0][1] == "x = 1"


def test_readme_has_snippets():
    readme = REPO_ROOT / "README.md"
    assert len(check_docs.extract_python_snippets(readme)) >= 2


def test_fleet_doc_names_real_metrics():
    """Metric names documented in FLEET.md must match what the runtime emits."""
    from repro.fleet.camera import CameraSpec
    from repro.fleet.runtime import FleetConfig, FleetRuntime

    doc = (REPO_ROOT / "docs" / "FLEET.md").read_text(encoding="utf-8")
    cameras = [
        CameraSpec("cam00", 32, 32, frame_rate=10.0, num_frames=6),
        CameraSpec("cam01", 32, 32, frame_rate=10.0, num_frames=6),
    ]
    report = FleetRuntime(
        cameras,
        config=FleetConfig(
            num_workers=1, max_in_flight=2, per_camera_quota=1, service_time_scale=0.5
        ),
    ).run()
    emitted = set(report.telemetry)
    for name in (
        "frames.generated",
        "frames.scored",
        "admission.in_flight",
        "admission.rejected_over_quota",
        "fairness.starved_cameras",
        "latency.queue_wait_seconds",
        "worker.service_seconds",
        "uplink.utilization",
        "uplink.backlog_seconds",
    ):
        assert name in doc, f"{name} missing from FLEET.md"
        assert name in emitted, f"{name} documented but never emitted"


def test_cli_entry_point():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "passed" in result.stdout
