"""Tests for the campaign engine: spec expansion, crash-safe stores,
kill-and-resume, worker-count invariance, and the CLI front end."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_report,
    campaign_status,
    design_token,
    run_campaign,
    strip_timing,
)
from repro.campaign.cells import cell_rng
from repro.campaign.runner import EngineCell, engine_cells, run_cells
from repro.cli import main
from repro.designs.generators import adder_design
from repro.errors import CampaignError
from repro.io.aiger import write_aag


QUICK = dict(flows=("baseline",), seeds=(1,), iterations=2)


def _noop_cell(payload):
    """Referenced by name through the engine's module:function resolver."""
    return {"echo": payload.get("echo")}


def quick_spec(**overrides):
    kwargs = dict(designs=("EX68",), **QUICK)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestSpec:
    def test_expansion_is_full_matrix(self):
        spec = quick_spec(
            designs=("EX68", "EX00"), flows=("baseline", "ground-truth"), seeds=(1, 2)
        )
        cells = spec.expand()
        assert len(cells) == 8
        assert len({cell.cell_id for cell in cells}) == 8

    def test_cell_ids_are_deterministic(self):
        first = [cell.cell_id for cell in quick_spec().expand()]
        second = [cell.cell_id for cell in quick_spec().expand()]
        assert first == second

    def test_flow_name_normalisation_dedupes(self):
        spec = quick_spec(flows=("ground-truth", "ground_truth"))
        assert len(spec.expand()) == 1

    def test_seed_changes_cell_id(self):
        ids = {cell.cell_id for cell in quick_spec(seeds=(1, 2, 3)).expand()}
        assert len(ids) == 3

    def test_unknown_axes_rejected(self):
        with pytest.raises(CampaignError):
            quick_spec(flows=("no-such-flow",)).expand()
        with pytest.raises(CampaignError):
            quick_spec(optimizers=("tabu",)).expand()
        with pytest.raises(CampaignError):
            quick_spec(evaluators=("quantum",)).expand()
        with pytest.raises(CampaignError):
            quick_spec(designs=()).expand()
        with pytest.raises(CampaignError):
            quick_spec(seeds=("one",)).expand()

    def test_ml_flow_requires_model(self):
        with pytest.raises(CampaignError):
            quick_spec(flows=("ml",)).expand()

    def test_external_file_design_token(self, tmp_path):
        path = tmp_path / "adder.aag"
        write_aag(adder_design(bits=3, name="add3"), path)
        token, fingerprint = design_token(path)
        assert token == str(path)
        assert fingerprint.startswith("file:")
        # Editing the file changes the fingerprint (and thus every cell id).
        write_aag(adder_design(bits=4, name="add4"), path)
        assert design_token(path)[1] != fingerprint

    def test_missing_file_design_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            design_token(tmp_path / "ghost.aag")

    def test_retrained_model_invalidates_cells(self, tmp_path):
        # The model file is part of the cell identity by content, exactly
        # like design files: overwriting it must change every cell id.
        model = tmp_path / "delay.json"
        model.write_text('{"version": 1}')
        spec = quick_spec(flows=("ml",), delay_model=str(model))
        before = [cell.cell_id for cell in spec.expand()]
        model.write_text('{"version": 2}')
        assert [cell.cell_id for cell in spec.expand()] != before

    def test_cell_rng_is_pure_function_of_id_and_seed(self):
        a = cell_rng("abcdef0123456789", 7)
        b = cell_rng("abcdef0123456789", 7)
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]
        assert cell_rng("abcdef0123456789", 8).random() != cell_rng(
            "abcdef0123456789", 7
        ).random()


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"cell_id": "a", "status": "ok", "x": 1})
        store.append({"cell_id": "b", "status": "error", "error": "boom"})
        reloaded = ResultStore(tmp_path / "s.jsonl")
        assert len(reloaded) == 2
        assert reloaded.completed_ids() == {"a"}
        assert reloaded.failed_ids() == {"b"}

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append({"cell_id": "a", "status": "ok"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "b", "status": "o')  # killed mid-write
        reloaded = ResultStore(path)
        assert [record["cell_id"] for record in reloaded.records] == ["a"]

    def test_latest_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"cell_id": "a", "status": "error", "error": "flaky"})
        store.append({"cell_id": "a", "status": "ok"})
        assert store.completed_ids() == {"a"}
        assert store.result_for("a")["status"] == "ok"

    def test_in_memory_store(self):
        store = ResultStore()
        store.append({"cell_id": "a", "status": "ok"})
        assert store.path is None and len(store) == 1

    def test_record_requires_cell_id(self):
        with pytest.raises(CampaignError):
            ResultStore().append({"status": "ok"})


class TestEngine:
    def test_kill_and_resume_completes_only_missing_cells(self, tmp_path):
        spec = quick_spec(designs=("EX68", "EX00"), seeds=(1, 2))
        full = ResultStore(tmp_path / "full.jsonl")
        run_campaign(spec, full, max_workers=1)
        assert len(full) == 4

        # Simulate a campaign killed after two cells (plus a torn write).
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text("\n".join(lines[:2]) + "\n" + lines[2][:25])
        partial = ResultStore(partial_path)
        summary = run_campaign(spec, partial, max_workers=1)
        assert summary.skipped == 2
        assert summary.executed == 2
        assert summary.ok
        # The resumed store matches the uninterrupted run modulo timing.
        resumed = sorted(
            (strip_timing(r) for r in partial.records), key=lambda r: r["cell_id"]
        )
        uninterrupted = sorted(
            (strip_timing(r) for r in full.records), key=lambda r: r["cell_id"]
        )
        assert resumed == uninterrupted

    def test_worker_count_invariance(self, tmp_path):
        spec = quick_spec(seeds=(1, 2, 3, 4))
        serial = ResultStore(tmp_path / "serial.jsonl")
        run_campaign(spec, serial, max_workers=1)
        parallel = ResultStore(tmp_path / "parallel.jsonl")
        run_campaign(spec, parallel, max_workers=4)
        # Identical content AND identical order, modulo wall-clock fields.
        assert [strip_timing(r) for r in serial.records] == [
            strip_timing(r) for r in parallel.records
        ]

    def test_resume_with_workers_skips_completed(self, tmp_path):
        spec = quick_spec(seeds=(1, 2, 3))
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(quick_spec(seeds=(1,)), store, max_workers=1)
        summary = run_campaign(spec, store, max_workers=4)
        assert summary.skipped == 1 and summary.executed == 2

    def test_failed_cells_are_recorded_and_retried(self, tmp_path):
        design = tmp_path / "adder.aag"
        write_aag(adder_design(bits=3, name="add3"), design)
        spec = quick_spec(designs=(design,))
        cells = spec.expand()
        payload = dict(cells[0].payload())
        content = design.read_text()
        design.unlink()  # the cell will fail to load the design
        store = ResultStore(tmp_path / "s.jsonl")
        broken = [
            EngineCell(
                cell_id=cell.cell_id,
                fn="repro.campaign.cells:run_optimize_cell",
                payload=payload,
            )
            for cell in cells
        ]
        summary = run_cells(broken, store, max_workers=1)
        assert summary.failed == [cells[0].cell_id]
        assert store.failed_ids() == {cells[0].cell_id}
        # Restore the file: the failed cell is retried and supersedes.
        design.write_text(content)
        summary = run_cells(broken, store, max_workers=1)
        assert summary.executed == 1 and summary.ok
        assert store.completed_ids() == {cells[0].cell_id}

    def test_bad_worker_fn_becomes_error_record(self):
        store = ResultStore()
        summary = run_cells(
            [EngineCell(cell_id="x", fn="repro.campaign.cells:no_such", payload={})],
            store,
        )
        assert summary.failed == ["x"]
        assert "no_such" in store.result_for("x")["error"]

    def test_duplicate_cells_execute_once(self):
        store = ResultStore()
        cell = EngineCell(cell_id="dup", fn="test_campaign:_noop_cell", payload={})
        summary = run_cells([cell, cell, cell], store, max_workers=1)
        assert summary.total == 1 and summary.executed == 1


class TestIncrementalAlias:
    """``incremental`` names the cached evaluator; specs, cell ids and stored
    records that name it stay valid."""

    def test_cell_id_and_record_are_unchanged(self):
        spec = CampaignSpec(
            designs=("EX00",),
            flows=("baseline",),
            optimizers=("greedy",),
            evaluators=("incremental",),
            seeds=(1,),
            iterations=4,
        )
        (cell,) = engine_cells(spec)
        # Pinned from before "incremental" became an alias: stores keyed by
        # this id must stay valid.
        assert cell.cell_id == "c2ee6b97d38be7ef0ddd"
        store = ResultStore()
        run_cells([cell], store)
        record = strip_timing(store.latest()[cell.cell_id])
        # The record that cell wrote then, which stored results must match.
        assert record["final_delay_ps"] == 1178.3100000000002
        assert record["final_area_um2"] == 622.5999999999995
        assert record["num_ands_after"] == 235

        # The cell RNG is keyed by the cell id, so the matching cached run
        # keeps this id and changes only the evaluator.
        cached = EngineCell(
            cell_id=cell.cell_id,
            fn=cell.fn,
            payload=dict(cell.payload, evaluator="cached"),
        )
        reference = ResultStore()
        run_cells([cached], reference)
        expected = strip_timing(reference.latest()[cell.cell_id])
        assert record.pop("evaluator") == "incremental"
        assert expected.pop("evaluator") == "cached"
        assert record == expected


class TestStatusAndReport:
    def test_status_counts(self, tmp_path):
        spec = quick_spec(seeds=(1, 2))
        store = ResultStore(tmp_path / "s.jsonl")
        status = campaign_status(spec, store)
        assert status.total == 2 and status.pending == 2 and not status.done
        run_campaign(quick_spec(seeds=(1,)), store)
        status = campaign_status(spec, store)
        assert status.completed == 1 and status.pending == 1
        run_campaign(spec, store)
        assert campaign_status(spec, store).done

    def test_report_aggregates_medians_and_stages(self, tmp_path):
        spec = quick_spec(seeds=(1, 2))
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(spec, store)
        report = campaign_report(store)
        rows = report.group_rows()
        assert len(rows) == 1
        assert rows[0].runs == 2
        assert rows[0].role == "train"
        assert rows[0].median_delay_ps > 0
        assert "train" in report.split_summary()
        assert report.stage_breakdown().get("transform", 0.0) >= 0.0
        text = report.format_report()
        assert "Campaign report" in text and "EX68" in text


class TestCampaignCli:
    def test_run_status_report(self, tmp_path, capsys):
        store = tmp_path / "cli.jsonl"
        matrix = [
            "--designs", "EX68", "--flows", "baseline",
            "--seeds", "1", "--iterations", "1",
        ]
        assert main(["campaign", "run", "--store", str(store), *matrix]) == 0
        assert store.exists()
        assert main(["campaign", "status", "--store", str(store), *matrix]) == 0
        assert main(["campaign", "report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 1 cells" in out
        assert "Campaign report" in out

    def test_rerun_skips_completed(self, tmp_path, capsys):
        store = tmp_path / "cli.jsonl"
        matrix = [
            "--designs", "EX68", "--flows", "baseline",
            "--seeds", "1", "--iterations", "1",
        ]
        main(["campaign", "run", "--store", str(store), *matrix])
        main(["campaign", "run", "--store", str(store), *matrix])
        assert "1 already done, 0 executed" in capsys.readouterr().out

    def test_report_missing_store_errors(self, tmp_path):
        assert main(["campaign", "report", "--store", str(tmp_path / "no.jsonl")]) == 2
