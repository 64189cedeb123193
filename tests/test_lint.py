"""Unit tests for provlint: registry, reports, and every rule.

Each rule gets two kinds of coverage: it fires on a minimal bad example,
and it stays silent on the paper's healthy phylogenomic workload.
"""

from __future__ import annotations

import json

import pytest

from repro.core.spec import INPUT, OUTPUT, WorkflowSpec
from repro.core.view import UserView, admin_view
from repro.lint import (
    LAYERS,
    RULES,
    Finding,
    LintReport,
    Linter,
    RuleConfig,
    RuleRegistry,
    RunFacts,
    lint_log,
    lint_run,
    lint_spec,
    lint_view,
    lint_warehouse,
)
from repro.run.executor import simulate
from repro.run.log import EventLog
from repro.run.run import WorkflowRun
from repro.warehouse.memory import InMemoryWarehouse
from repro.workloads.phylogenomic import phylogenomic_run, phylogenomic_spec


def rule_ids(report):
    return report.rule_ids()


# ----------------------------------------------------------------------
# Registry and configuration
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_rules_have_valid_ids_and_layers(self):
        rules = RULES.all_rules()
        assert len(rules) >= 30
        assert {r.layer for r in rules} == set(LAYERS)

    def test_duplicate_registration_rejected(self):
        registry = RuleRegistry()
        registry.register("XX001", "spec", "error", "one")
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("XX001", "spec", "error", "again")

    def test_malformed_declarations_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(ValueError, match="malformed rule id"):
            registry.register("lowercase1", "spec", "error", "bad id")
        with pytest.raises(ValueError, match="unknown layer"):
            registry.register("XX002", "nope", "error", "bad layer")
        with pytest.raises(ValueError, match="unknown severity"):
            registry.register("XX003", "spec", "fatal", "bad severity")

    def test_finding_stamps_severity_and_layer(self):
        finding = RULES.finding("SPEC001", "s", "msg")
        assert finding.severity == "error"
        assert finding.layer == "spec"

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            RULES.get("NOPE999")

    def test_config_ignore_beats_select(self):
        config = RuleConfig.build(select=["SPEC001"], ignore=["SPEC001"])
        assert not config.enabled("SPEC001")

    def test_config_select_narrows(self):
        config = RuleConfig.build(select=["SPEC001"])
        assert config.enabled("SPEC001")
        assert not config.enabled("SPEC002")

    def test_config_default_enables_everything(self):
        config = RuleConfig()
        assert config.enabled("WH030")

    def test_config_validates_ids(self):
        with pytest.raises(KeyError, match="unknown lint rule"):
            RuleConfig.build(select=["TYPO123"])

    def test_linter_honours_config(self):
        payload = {"name": "w", "modules": ["A"],
                   "edges": [[INPUT, "A"], ["A", OUTPUT], ["A", "ghost"]]}
        linter = Linter(config=RuleConfig.build(ignore=["SPEC003"]),
                        emit_metrics=False)
        assert "SPEC003" not in rule_ids(linter.lint_spec(payload))


# ----------------------------------------------------------------------
# Findings and reports
# ----------------------------------------------------------------------


class TestReport:
    def make(self):
        report = LintReport()
        report.add(RULES.finding("SPEC003", "w", "dangling", location="A->B"))
        report.add(RULES.finding("RUN018", "r", "orphan"))
        report.add(RULES.finding("SPEC009", "w", "loops"))
        return report

    def test_counts_and_ok(self):
        report = self.make()
        assert report.counts() == {"error": 1, "warning": 1, "info": 1}
        assert report.has_errors
        assert not report.ok()
        assert LintReport().ok(strict=True)

    def test_sorted_by_severity_then_rule(self):
        ordered = [f.rule_id for f in self.make().sorted_findings()]
        assert ordered == ["SPEC003", "RUN018", "SPEC009"]

    def test_text_rendering(self):
        text = self.make().to_text()
        assert "SPEC003 error [w:A->B] dangling" in text
        assert "3 finding(s): 1 error(s), 1 warning(s), 1 info" in text

    def test_json_round_trip(self):
        payload = json.loads(self.make().to_json())
        assert payload["summary"]["rules"] == ["RUN018", "SPEC003", "SPEC009"]
        assert payload["summary"]["ok"] is False
        assert payload["findings"][0]["rule"] == "SPEC003"
        assert payload["findings"][0]["location"] == "A->B"

    def test_merge_and_by_rule(self):
        left, right = self.make(), self.make()
        left.merge(right)
        assert len(left) == 6
        assert len(left.by_rule()["SPEC003"]) == 2

    def test_finding_str_without_location(self):
        finding = Finding("SPEC001", "error", "spec", "w", "bad label")
        assert str(finding) == "SPEC001 error [w] bad label"


# ----------------------------------------------------------------------
# Spec rules
# ----------------------------------------------------------------------


def spec_payload(modules, edges, name="w"):
    return {"name": name, "modules": modules, "edges": edges}


class TestSpecRules:
    def test_clean_phylogenomic_only_loop_info(self):
        report = lint_spec(phylogenomic_spec(), emit_metrics=False)
        assert report.ok()
        assert rule_ids(report) == ["SPEC009"]

    def test_spec001_invalid_label(self):
        for bad in ["", None, 7, INPUT, OUTPUT]:
            report = lint_spec(spec_payload([bad], []), emit_metrics=False)
            assert "SPEC001" in rule_ids(report), bad

    def test_spec002_duplicate_label(self):
        report = lint_spec(
            spec_payload(["A", "A"], [[INPUT, "A"], ["A", OUTPUT]]),
            emit_metrics=False,
        )
        assert "SPEC002" in rule_ids(report)

    def test_spec003_dangling_and_malformed_edges(self):
        report = lint_spec(
            spec_payload(["A"], [[INPUT, "A"], ["A", OUTPUT],
                                 ["A", "ghost"], ["A"], ["A", 3]]),
            emit_metrics=False,
        )
        assert len(report.by_rule()["SPEC003"]) == 3

    def test_spec004_edges_into_input_or_out_of_output(self):
        report = lint_spec(
            spec_payload(["A"], [[INPUT, "A"], ["A", OUTPUT],
                                 ["A", INPUT], [OUTPUT, "A"]]),
            emit_metrics=False,
        )
        assert len(report.by_rule()["SPEC004"]) == 2

    def test_spec005_self_loop(self):
        report = lint_spec(
            spec_payload(["A"], [[INPUT, "A"], ["A", "A"], ["A", OUTPUT]]),
            emit_metrics=False,
        )
        assert "SPEC005" in rule_ids(report)

    def test_spec006_and_spec007_reachability(self):
        report = lint_spec(
            spec_payload(["A", "B"], [[INPUT, "A"], ["A", OUTPUT]]),
            emit_metrics=False,
        )
        ids = rule_ids(report)
        assert "SPEC006" in ids and "SPEC007" in ids
        by_rule = report.by_rule()
        assert by_rule["SPEC006"][0].location == "B"

    def test_spec008_empty_spec(self):
        report = lint_spec(spec_payload([], []), emit_metrics=False)
        assert "SPEC008" in rule_ids(report)
        assert report.ok()  # a warning, not an error

    def test_spec009_names_the_loop_members(self, loop_spec):
        report = lint_spec(loop_spec, emit_metrics=False)
        finding = report.by_rule()["SPEC009"][0]
        assert "A, B, C" in finding.message

    def test_accepts_constructed_spec_and_payload(self, diamond_spec):
        assert lint_spec(diamond_spec, emit_metrics=False).ok(strict=True)
        assert lint_spec(diamond_spec.to_dict(), emit_metrics=False).ok(
            strict=True
        )


# ----------------------------------------------------------------------
# Run rules
# ----------------------------------------------------------------------


def tiny_spec():
    return WorkflowSpec(
        ["A", "B"], [(INPUT, "A"), ("A", "B"), ("B", OUTPUT)], name="tiny"
    )


def good_log(spec):
    log = EventLog(run_id="r")
    log.user_input("d0")
    log.start("s1", "A")
    log.read("s1", "d0")
    log.write("s1", "d1")
    log.start("s2", "B")
    log.read("s2", "d1")
    log.write("s2", "d2")
    log.final_output("d2")
    return log


class TestRunRules:
    def test_clean_log_and_run_are_silent(self):
        spec = tiny_spec()
        assert lint_log(good_log(spec), spec, emit_metrics=False).ok(
            strict=True
        )
        run = phylogenomic_run(phylogenomic_spec())
        assert lint_run(run, emit_metrics=False).ok(strict=True)

    def test_simulated_runs_are_silent(self, spec):
        result = simulate(spec)
        assert lint_run(result.run, emit_metrics=False).ok(strict=True)
        # The simulated *log* may record writes the run never consumed
        # (loop-discarded data); those surface as RUN018 warnings, never
        # as errors.
        report = lint_log(result.log, spec, emit_metrics=False)
        assert report.ok()
        assert set(rule_ids(report)) <= {"RUN018"}

    def test_run010_duplicate_and_reserved_steps(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.start("s1", "B")        # duplicate id
        log.start(INPUT, "A")       # reserved id
        report = lint_log(log, spec, emit_metrics=False)
        assert len(report.by_rule()["RUN010"]) == 2

    def test_run011_unknown_module(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.start("s3", "imposter")
        report = lint_log(log, spec, emit_metrics=False)
        assert "RUN011" in rule_ids(report)

    def test_run011_needs_a_spec(self):
        log = good_log(tiny_spec())
        log.start("s3", "imposter")
        report = lint_log(log, None, emit_metrics=False)
        assert "RUN011" not in rule_ids(report)

    def test_run012_multi_producer(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.write("s2", "d1")  # d1 already written by s1
        report = lint_log(log, spec, emit_metrics=False)
        assert "RUN012" in rule_ids(report)

    def test_run013_read_of_unproduced_data(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.read("s2", "d_missing")
        report = lint_log(log, spec, emit_metrics=False)
        assert "RUN013" in rule_ids(report)

    def test_run014_read_before_write_names_positions(self):
        spec = tiny_spec()
        log = EventLog(run_id="r")
        log.user_input("d0")
        log.start("s1", "A")
        log.read("s1", "d0")
        log.start("s2", "B")
        log.read("s2", "d1")   # position 4: read before ...
        log.write("s1", "d1")  # ... position 5: the write
        log.write("s2", "d2")
        log.final_output("d2")
        report = lint_log(log, spec, emit_metrics=False)
        finding = report.by_rule()["RUN014"][0]
        assert "at event 4 before its write at event 5" in finding.message

    def test_run014_skipped_without_positions(self):
        # The same shape via rows has no event order, so only the
        # position-free rules can judge it.
        facts = RunFacts.from_rows(
            "r",
            steps=[("s1", "A"), ("s2", "B")],
            io_rows=[("s2", "d1", "in"), ("s1", "d1", "out"),
                     ("s1", "d0", "in"), ("s2", "d2", "out")],
            user_inputs=frozenset({"d0"}),
            final_outputs=frozenset({"d2"}),
        )
        from repro.lint.rules_run import lint_run_facts

        assert "RUN014" not in {f.rule_id for f in lint_run_facts(facts)}

    def test_run015_cyclic_dataflow(self):
        facts = RunFacts.from_rows(
            "r",
            steps=[("s1", "A"), ("s2", "B")],
            io_rows=[("s1", "d1", "out"), ("s2", "d1", "in"),
                     ("s2", "d2", "out"), ("s1", "d2", "in")],
            user_inputs=frozenset(),
            final_outputs=frozenset({"d2"}),
        )
        from repro.lint.rules_run import lint_run_facts

        ids = {f.rule_id for f in lint_run_facts(facts)}
        assert "RUN015" in ids

    def test_run016_io_by_unstarted_step(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.write("s9", "d9")
        log.read("s8", "d1")
        report = lint_log(log, spec, emit_metrics=False)
        assert len(report.by_rule()["RUN016"]) == 2

    def test_run017_final_output_never_produced(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.final_output("d_final")
        report = lint_log(log, spec, emit_metrics=False)
        assert "RUN017" in rule_ids(report)

    def test_run018_orphan_data_is_a_warning(self):
        spec = tiny_spec()
        log = good_log(spec)
        log.write("s2", "d_dead")
        report = lint_log(log, spec, emit_metrics=False)
        assert "RUN018" in rule_ids(report)
        assert report.ok()  # warnings don't fail the artifact

    def test_run019_dataflow_without_spec_edge(self):
        spec = WorkflowSpec(
            ["A", "B"],
            [(INPUT, "A"), (INPUT, "B"), ("A", OUTPUT), ("B", OUTPUT)],
            name="parallel",
        )
        log = EventLog(run_id="r")
        log.user_input("d0")
        log.start("s1", "A")
        log.read("s1", "d0")
        log.write("s1", "d1")
        log.start("s2", "B")
        log.read("s2", "d1")  # A -> B has no spec edge
        log.write("s2", "d2")
        log.final_output("d1")
        log.final_output("d2")
        report = lint_log(log, spec, emit_metrics=False)
        finding = report.by_rule()["RUN019"][0]
        assert "s1 -> s2" in finding.message

    def test_lint_run_collects_what_validate_raises_on(self):
        # The fail-fast path raises on the first defect; the linter
        # reports the same graph's problem without raising.
        spec = WorkflowSpec(
            ["A", "B"],
            [(INPUT, "A"), (INPUT, "B"), ("A", OUTPUT), ("B", OUTPUT)],
            name="parallel",
        )
        run = WorkflowRun(spec, run_id="r")
        run.add_step("s1", "A")
        run.add_step("s2", "B")
        run.add_edge(INPUT, "s1", ["d0"])
        run.add_edge("s1", "s2", ["d1"])  # no spec edge A -> B
        run.add_edge("s2", OUTPUT, ["d2"])
        from repro.core.errors import RunError

        with pytest.raises(RunError, match="no specification edge"):
            run.validate()
        report = lint_run(run, emit_metrics=False)
        assert "RUN019" in rule_ids(report)


# ----------------------------------------------------------------------
# View rules
# ----------------------------------------------------------------------


class TestViewRules:
    def test_clean_views_are_silent(self, joe, mary, joe_relevant,
                                    mary_relevant):
        for view, relevant in [(joe, joe_relevant), (mary, mary_relevant)]:
            report = lint_view(view, relevant=relevant,
                               check_minimality=True, emit_metrics=False)
            assert report.ok(strict=True), report.to_text()

    def test_payload_rules_on_raw_rows(self, diamond_spec):
        findings = {
            "VIEW020": ("P", "ghost member"),
            "VIEW021": ("A", "overlap"),
            "VIEW022": (None, "uncovered"),
            "VIEW023": (INPUT, "reserved"),
        }
        from repro.lint.rules_view import lint_view_payload

        rows = {
            INPUT: ["A"],            # VIEW023 reserved name
            "P": ["B", "ghost"],     # VIEW020 unknown member
            "Q": ["A", "B"],         # VIEW021: A and B already assigned
        }                            # VIEW022: C, D never covered
        ids = {f.rule_id for f in lint_view_payload(
            "v", rows, frozenset(diamond_spec.modules))}
        assert set(findings) <= ids

    def test_view023_empty_composite(self, diamond_spec):
        from repro.lint.rules_view import lint_view_payload

        ids = {f.rule_id for f in lint_view_payload(
            "v", {"P": [], "Q": ["A", "B", "C", "D"]},
            frozenset(diamond_spec.modules))}
        assert "VIEW023" in ids

    def test_view020_unknown_relevant_module(self, diamond_spec):
        view = admin_view(diamond_spec)
        report = lint_view(view, relevant={"A", "nope"}, emit_metrics=False)
        assert "VIEW020" in rule_ids(report)

    def test_view024_property1(self, diamond_spec):
        view = UserView(diamond_spec, {"P": {"A", "B", "C", "D"}}, name="v")
        report = lint_view(view, relevant={"B", "C"}, emit_metrics=False)
        finding = report.by_rule()["VIEW024"][0]
        assert "B, C" in finding.message

    def test_view025_and_026_properties_2_and_3(self, diamond_spec):
        # Grouping the fan-out module A with only branch B invents an
        # apparent B-side provenance for C and loses A's own edge.
        view = UserView(
            diamond_spec, {"P": {"A", "B"}, "Q": {"C"}, "R": {"D"}}, name="v"
        )
        report = lint_view(view, relevant={"B", "C", "D"},
                           emit_metrics=False)
        ids = rule_ids(report)
        assert "VIEW025" in ids or "VIEW026" in ids

    def test_view026_lost_dataflow(self):
        # input -> A -> B -> C -> output; grouping A with C routes the
        # A->B dataflow through a composite that comes *after* B.
        chain = WorkflowSpec(
            ["A", "B", "C"],
            [(INPUT, "A"), ("A", "B"), ("B", "C"), ("C", OUTPUT)],
            name="chain",
        )
        view = UserView(chain, {"P": {"A", "C"}, "Q": {"B"}}, name="v")
        report = lint_view(view, relevant={"A", "B"}, emit_metrics=False)
        assert not report.ok()

    def test_view027_non_minimal_is_warning(self):
        chain = WorkflowSpec(
            ["A", "B", "C"],
            [(INPUT, "A"), ("A", "B"), ("B", "C"), ("C", OUTPUT)],
            name="chain",
        )
        # Only A is relevant; splitting B and C into singletons satisfies
        # Properties 1-3 but is not minimal (B and C could merge).
        view = UserView(
            chain, {"P": {"A"}, "Q": {"B"}, "R": {"C"}}, name="v"
        )
        report = lint_view(view, relevant={"A"}, check_minimality=True,
                           emit_metrics=False)
        assert "VIEW027" in rule_ids(report)
        assert report.ok()

    def test_minimality_off_is_the_fast_path(self):
        chain = WorkflowSpec(
            ["A", "B", "C"],
            [(INPUT, "A"), ("A", "B"), ("B", "C"), ("C", OUTPUT)],
            name="chain",
        )
        view = UserView(
            chain, {"P": {"A"}, "Q": {"B"}, "R": {"C"}}, name="v"
        )
        report = lint_view(view, relevant={"A"}, emit_metrics=False)
        assert "VIEW027" not in rule_ids(report)

    def test_view028_manufactured_loop(self, diamond_spec):
        # Grouping a module with its transitive consumer (A with D)
        # creates a loop the acyclic diamond does not have.
        view = UserView(
            diamond_spec, {"P": {"A", "D"}, "Q": {"B"}, "R": {"C"}}, name="v"
        )
        report = lint_view(view, emit_metrics=False)
        assert "VIEW028" in rule_ids(report)

    def test_view029_disconnected_relevant_composite(self, diamond_spec):
        # B and C are parallel branches: grouped together (without A or
        # D) they are not weakly connected.
        view = UserView(
            diamond_spec, {"P": {"A"}, "Q": {"B", "C"}, "R": {"D"}}, name="v"
        )
        report = lint_view(view, relevant={"B"}, emit_metrics=False)
        assert "VIEW029" in rule_ids(report)

    def test_no_relevant_set_checks_structure_only(self, joe):
        report = lint_view(joe, emit_metrics=False)
        assert report.ok(strict=True)


# ----------------------------------------------------------------------
# The core fast path the linter leans on
# ----------------------------------------------------------------------


class TestMinimalityFastPath:
    def test_report_good_with_minimality_skipped(self, joe, joe_relevant):
        from repro.core.properties import check_view

        report = check_view(joe, joe_relevant, check_minimality=False)
        assert report.minimal is None
        assert report.good  # None must not count as a failure

    def test_full_check_still_agrees(self, joe, joe_relevant):
        from repro.core.properties import check_view

        assert check_view(joe, joe_relevant).minimal is True


# ----------------------------------------------------------------------
# Warehouse rules (in-memory corruption via RunFacts/raw rows)
# ----------------------------------------------------------------------


class TestWarehouseRules:
    def lint_rows(self, **kwargs):
        from repro.lint.rules_warehouse import lint_run_rows

        defaults = dict(
            run_id="r",
            steps=[("s1", "A")],
            io_rows=[("s1", "d1", "out")],
            user_inputs=[],
            final_outputs=["d1"],
            spec_modules={"A"},
        )
        defaults.update(kwargs)
        return {f.rule_id for f in lint_run_rows(**defaults)}

    def test_clean_rows_are_silent(self):
        assert self.lint_rows() == set()

    def test_wh030_multi_producer(self):
        ids = self.lint_rows(
            steps=[("s1", "A"), ("s2", "A")],
            io_rows=[("s1", "d1", "out"), ("s2", "d1", "out")],
        )
        assert "WH030" in ids

    def test_wh030_step_writes_over_user_input(self):
        ids = self.lint_rows(user_inputs=["d1"])
        assert "WH030" in ids

    def test_wh031_unknown_module(self):
        assert "WH031" in self.lint_rows(steps=[("s1", "imposter")],
                                         io_rows=[("s1", "d1", "out")])

    def test_wh031_needs_spec_modules(self):
        assert "WH031" not in self.lint_rows(
            steps=[("s1", "imposter")], spec_modules=None,
            io_rows=[("s1", "d1", "out")])

    def test_wh032_dangling_io_row(self):
        ids = self.lint_rows(
            io_rows=[("s1", "d1", "out"), ("s9", "d2", "in")])
        assert "WH032" in ids

    def test_wh033_read_never_produced(self):
        ids = self.lint_rows(
            io_rows=[("s1", "d1", "out"), ("s1", "d_missing", "in")])
        assert "WH033" in ids

    def test_wh034_final_output_never_produced(self):
        ids = self.lint_rows(final_outputs=["d1", "d_final"])
        assert "WH034" in ids

    def test_wh037_stepless_run(self):
        ids = self.lint_rows(steps=[], io_rows=[], final_outputs=[])
        assert "WH037" in ids

    def test_healthy_in_memory_warehouse_is_quiet(self, spec):
        warehouse = InMemoryWarehouse()
        spec_id = warehouse.store_spec(spec)
        warehouse.store_run(simulate(spec).run, spec_id)
        report = lint_warehouse(warehouse, emit_metrics=False)
        assert report.ok()
        assert rule_ids(report) == ["SPEC009"]  # the workload's loop note
