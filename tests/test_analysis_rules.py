"""Per-rule fixture tests for :mod:`repro.analysis`.

Each rule gets a minimal violating snippet and a clean twin, plus the
framework behaviours the self-hosting test relies on: inline suppressions
(explained, unexplained, standalone, unused), ``--select``/``--ignore``
code resolution, JSON output and the SPEC001 mutation guarantee.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    available_rules,
    get_rule,
    lint_source,
    module_name_for,
    register_rule,
    resolve_codes,
    run_paths,
)
from repro.analysis.base import parse_suppressions
from repro.analysis.rules.spec_freeze import (
    SPEC_TARGETS,
    SpecFreezeRule,
    compute_spec_hashes,
    load_pins,
)
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def lint(source: str, module: str, codes: list[str] | None = None):
    """Lint a dedented snippet under an explicit module name."""
    return lint_source(textwrap.dedent(source), path="<fixture>", module=module, codes=codes)


def codes_of(report) -> list[str]:
    return [finding.code for finding in report.findings]


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_all_seven_rules_registered(self):
        expected = {"DET001", "DET002", "TIME001", "SPEC001", "IO001", "REG001", "ERR001"}
        assert expected <= set(available_rules())

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("det001").code == "DET001"

    def test_unknown_rule_raises(self):
        with pytest.raises(ConfigurationError, match="unknown lint rule"):
            get_rule("NOPE999")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_rule(get_rule("DET001"))

    def test_every_rule_has_description(self):
        for code in available_rules():
            rule = get_rule(code)
            assert rule.name and rule.description


# --------------------------------------------------------------------- #
# DET001 — no global RNG
# --------------------------------------------------------------------- #
class TestDET001:
    def test_numpy_global_seed_flagged(self):
        report = lint(
            """
            import numpy as np
            np.random.seed(42)
            """,
            module="repro.core.fake",
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]

    def test_numpy_global_draw_flagged(self):
        report = lint(
            """
            import numpy
            x = numpy.random.shuffle(values)
            """,
            module="repro.extensions.fake",
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]

    def test_stdlib_random_import_flagged(self):
        report = lint("import random\n", module="repro.core.fake", codes=["DET001"])
        assert codes_of(report) == ["DET001"]

    def test_stdlib_from_import_flagged(self):
        report = lint(
            "from random import shuffle\n", module="repro.core.fake", codes=["DET001"]
        )
        assert codes_of(report) == ["DET001"]

    def test_default_rng_clean(self):
        report = lint(
            """
            import numpy as np
            generator = np.random.default_rng(0)
            values = generator.normal(size=3)
            state = np.random.Generator(np.random.PCG64(7))
            """,
            module="repro.core.fake",
            codes=["DET001"],
        )
        assert report.findings == []

    def test_renamed_numpy_import_still_seen(self):
        report = lint(
            """
            import numpy as nmp
            nmp.random.seed(1)
            """,
            module="repro.core.fake",
            codes=["DET001"],
        )
        assert codes_of(report) == ["DET001"]


# --------------------------------------------------------------------- #
# DET002 — no unsorted set iteration in core
# --------------------------------------------------------------------- #
class TestDET002:
    def test_for_loop_over_set_flagged(self):
        report = lint(
            """
            def f(xs):
                out = []
                pending = set(xs)
                for x in pending:
                    out.append(x)
                return out
            """,
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_list_of_set_flagged(self):
        report = lint(
            "def f(xs):\n    return list(set(xs))\n",
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_comprehension_over_set_literal_flagged(self):
        report = lint(
            "def f():\n    return [x + 1 for x in {3, 1, 2}]\n",
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_annotated_set_name_flagged(self):
        report = lint(
            """
            def f(items):
                seen: set[int] = set()
                for item in items:
                    seen.add(item)
                return tuple(seen)
            """,
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert codes_of(report) == ["DET002"]

    def test_sorted_wrapper_clean(self):
        report = lint(
            """
            def f(xs):
                pending = set(xs)
                out = []
                for x in sorted(pending):
                    out.append(x)
                return out, sorted(set(xs))
            """,
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert report.findings == []

    def test_order_insensitive_uses_clean(self):
        report = lint(
            """
            def f(xs, y):
                seen = set(xs)
                return len(seen), (y in seen), max(seen), sum(seen)
            """,
            module="repro.core.fake",
            codes=["DET002"],
        )
        assert report.findings == []

    def test_out_of_scope_module_not_checked(self):
        report = lint(
            "def f(xs):\n    return list(set(xs))\n",
            module="repro.bench.fake",
            codes=["DET002"],
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# TIME001 — no wall clock in core
# --------------------------------------------------------------------- #
class TestTIME001:
    def test_time_time_flagged_in_core(self):
        report = lint(
            "import time\nstamp = time.time()\n",
            module="repro.core.fake",
            codes=["TIME001"],
        )
        assert codes_of(report) == ["TIME001"]

    def test_datetime_now_flagged(self):
        report = lint(
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            module="repro.data.fake",
            codes=["TIME001"],
        )
        assert codes_of(report) == ["TIME001"]

    def test_perf_counter_clean(self):
        report = lint(
            "import time\nstart = time.perf_counter()\n",
            module="repro.core.fake",
            codes=["TIME001"],
        )
        assert report.findings == []

    def test_interface_layer_out_of_scope(self):
        report = lint(
            "import time\nstamp = time.time()\n",
            module="repro.cli",
            codes=["TIME001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# SPEC001 — frozen specs
# --------------------------------------------------------------------- #
class TestSPEC001:
    def test_pins_cover_every_target(self):
        pins = load_pins()
        for module, qualnames in SPEC_TARGETS.items():
            for qualname in qualnames:
                assert "%s::%s" % (module, qualname) in pins

    def test_current_sources_match_pins(self):
        sources = {
            "repro.core.rock": (SRC / "core" / "rock.py").read_text(encoding="utf-8"),
            "repro.core.neighbors.bruteforce": (
                SRC / "core" / "neighbors" / "bruteforce.py"
            ).read_text(encoding="utf-8"),
        }
        assert compute_spec_hashes(sources) == load_pins()

    def test_mutated_bruteforce_is_caught(self):
        source = (SRC / "core" / "neighbors" / "bruteforce.py").read_text(
            encoding="utf-8"
        )
        mutated = source.replace(">= theta", "> theta")
        assert mutated != source
        report = lint_source(
            mutated,
            path="<mutated>",
            module="repro.core.neighbors.bruteforce",
            codes=["SPEC001"],
        )
        assert codes_of(report) == ["SPEC001"]
        assert "structure of frozen spec" in report.findings[0].message

    def test_mutated_reference_engine_is_caught(self):
        source = (SRC / "core" / "rock.py").read_text(encoding="utf-8")
        mutated = source.replace(
            "best_goodness <= 0.0", "best_goodness < 0.0"
        )
        assert mutated != source
        report = lint_source(
            mutated, path="<mutated>", module="repro.core.rock", codes=["SPEC001"]
        )
        assert codes_of(report) == ["SPEC001"]

    def test_docstring_edits_do_not_trip_the_pin(self):
        source = (SRC / "core" / "neighbors" / "bruteforce.py").read_text(
            encoding="utf-8"
        )
        reworded = source.replace(
            "All-pairs measure evaluation; the reference implementation.",
            "All-pairs evaluation (reworded docstring).",
        )
        assert reworded != source
        report = lint_source(
            reworded,
            path="<reworded>",
            module="repro.core.neighbors.bruteforce",
            codes=["SPEC001"],
        )
        assert report.findings == []

    def test_removed_spec_is_reported(self):
        report = lint_source(
            "x = 1\n",
            path="<empty>",
            module="repro.core.neighbors.bruteforce",
            codes=["SPEC001"],
        )
        assert codes_of(report) == ["SPEC001"]
        assert "missing" in report.findings[0].message

    def test_missing_pin_is_reported(self):
        rule = SpecFreezeRule(
            targets={"repro.core.fake": ("thing",)}, pins={}
        )
        import ast

        from repro.analysis.base import RuleContext

        source = "def thing():\n    return 1\n"
        context = RuleContext(
            path="<fixture>",
            module="repro.core.fake",
            source=source,
            tree=ast.parse(source),
        )
        findings = rule.check(context)
        assert len(findings) == 1
        assert "no committed pin" in findings[0].message


# --------------------------------------------------------------------- #
# IO001 — atomic writes only
# --------------------------------------------------------------------- #
class TestIO001:
    def test_write_mode_open_flagged(self):
        report = lint(
            'def f(p):\n    with open(p, "w") as h:\n        h.write("x")\n',
            module="repro.evaluation.fake",
            codes=["IO001"],
        )
        assert codes_of(report) == ["IO001"]

    def test_binary_append_and_keyword_modes_flagged(self):
        report = lint(
            """
            def f(p):
                a = open(p, "wb")
                b = open(p, mode="a")
            """,
            module="repro.evaluation.fake",
            codes=["IO001"],
        )
        assert codes_of(report) == ["IO001", "IO001"]

    def test_path_write_text_flagged(self):
        report = lint(
            'def f(p):\n    p.write_text("data")\n',
            module="repro.bench.fake",
            codes=["IO001"],
        )
        assert codes_of(report) == ["IO001"]

    def test_path_open_write_flagged(self):
        report = lint(
            'def f(p):\n    with p.open("w") as h:\n        h.write("x")\n',
            module="repro.bench.fake",
            codes=["IO001"],
        )
        assert codes_of(report) == ["IO001"]

    def test_read_open_clean(self):
        report = lint(
            """
            def f(p):
                with open(p) as h:
                    return h.read()
            """,
            module="repro.evaluation.fake",
            codes=["IO001"],
        )
        assert report.findings == []

    def test_atomic_helper_module_exempt(self):
        report = lint(
            'def f(p):\n    with open(p, "w") as h:\n        h.write("x")\n',
            module="repro.data.io",
            codes=["IO001"],
        )
        assert report.findings == []

    def test_snapshot_tmp_dir_build_exempt(self):
        report = lint(
            'def f(p):\n    with p.open("wb") as h:\n        h.write(b"x")\n',
            module="repro.persistence.snapshot",
            codes=["IO001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# REG001 — no drifting registry literals
# --------------------------------------------------------------------- #
class TestREG001:
    def test_comparison_outside_registry_flagged(self):
        report = lint(
            'def f(strategy):\n    return strategy == "blocked"\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert codes_of(report) == ["REG001"]

    def test_membership_tuple_flagged(self):
        report = lint(
            'def f(s):\n    return s in ("round-robin", "contiguous")\n',
            module="repro.core.pipeline",
            codes=["REG001"],
        )
        assert codes_of(report) == ["REG001", "REG001"]

    def test_choice_table_flagged(self):
        report = lint(
            'CHOICES = ["bruteforce", "blocked"]\n',
            module="repro.bench.fake",
            codes=["REG001"],
        )
        assert codes_of(report) == ["REG001", "REG001"]

    def test_dict_dispatch_flagged(self):
        report = lint(
            'TABLE = {"arena": 1, "reference": 2}\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert codes_of(report) == ["REG001", "REG001"]

    def test_home_module_clean(self):
        report = lint(
            'def f(strategy):\n    return strategy == "blocked"\n',
            module="repro.core.neighbors.blocked",
            codes=["REG001"],
        )
        assert report.findings == []

    def test_shard_executor_literal_flagged_outside_registry(self):
        report = lint(
            'def f(executor):\n    return executor == "process"\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert codes_of(report) == ["REG001"]

    def test_shard_executor_names_allowed_in_sharding(self):
        report = lint(
            'def f(executor):\n    return executor in ("thread", "process")\n',
            module="repro.core.sharding",
            codes=["REG001"],
        )
        assert report.findings == []

    def test_auto_is_a_resolution_request_not_an_executor(self):
        # "auto" is no registered shard executor (only the engine and
        # neighbour layers resolve it), so comparing against it is no
        # registry literal.
        report = lint(
            'def f(executor):\n    return executor == "auto"\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert report.findings == []

    def test_shared_name_allowed_in_either_home(self):
        # "bruteforce" is both a neighbour backend and a labelling strategy;
        # the labelling module may spell it.
        report = lint(
            'def f(s):\n    return s == "bruteforce"\n',
            module="repro.core.labeling",
            codes=["REG001"],
        )
        assert report.findings == []

    def test_unregistered_string_clean(self):
        report = lint(
            'def f(s):\n    return s == "totally-unrelated"\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert report.findings == []

    def test_neighbour_names_match_the_live_registry(self):
        # REG001's literal set tracks the registry: a retired backend name
        # ("vectorized") is no longer a registry literal.
        from repro.analysis.rules.registry_literals import NAME_REGISTRIES
        from repro.core.neighbors import available_backends

        (neighbour,) = [r for r in NAME_REGISTRIES if r.label == "neighbour backend"]
        assert neighbour.names == frozenset(available_backends())
        assert "vectorized" not in neighbour.names

    def test_single_name_in_plain_list_clean(self):
        # One name alone is not a choice table (e.g. an error-message part).
        report = lint(
            'PARTS = ["blocked"]\n',
            module="repro.cli",
            codes=["REG001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# ERR001 — exception contract
# --------------------------------------------------------------------- #
class TestERR001:
    def test_silent_broad_catch_flagged(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except Exception:
                    return None
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert codes_of(report) == ["ERR001"]

    def test_bare_except_flagged(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except:
                    pass
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert codes_of(report) == ["ERR001"]

    def test_swallowing_injected_fault_directly_flagged(self):
        report = lint(
            """
            from repro.persistence.failpoints import InjectedFaultError

            def f(x):
                try:
                    return x()
                except InjectedFaultError:
                    return None
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert codes_of(report) == ["ERR001"]

    def test_broad_catch_that_reraises_clean(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except BaseException:
                    cleanup()
                    raise
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert report.findings == []

    def test_unchained_rewrap_flagged(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except ValueError:
                    raise RuntimeError("wrapped")
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert codes_of(report) == ["ERR001"]

    def test_chained_rewrap_clean(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except ValueError as error:
                    raise RuntimeError("wrapped") from error
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert report.findings == []

    def test_from_none_clean(self):
        report = lint(
            """
            def f(table, key):
                try:
                    return table[key]
                except KeyError:
                    raise LookupError("unknown %r" % key) from None
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert report.findings == []

    def test_narrow_catch_without_raise_clean(self):
        report = lint(
            """
            def f(x):
                try:
                    return x()
                except ValueError:
                    return None
            """,
            module="repro.core.fake",
            codes=["ERR001"],
        )
        assert report.findings == []


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #
class TestSuppressions:
    VIOLATION = 'def f(p):\n    p.write_text("x")  # repro-lint: disable=IO001 reason=demo fixture\n'

    def test_explained_suppression_silences_and_is_counted(self):
        report = lint(self.VIOLATION, module="repro.bench.fake", codes=["IO001"])
        assert report.findings == []
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppression_reason == "demo fixture"

    def test_unexplained_suppression_fails_the_run(self):
        source = 'def f(p):\n    p.write_text("x")  # repro-lint: disable=IO001\n'
        report = lint(source, module="repro.bench.fake", codes=["IO001"])
        assert report.findings == []
        assert len(report.unexplained_suppressions) == 1
        assert not report.ok
        assert report.exit_code() == 1

    def test_standalone_comment_applies_to_next_line(self):
        source = (
            "def f(p):\n"
            "    # repro-lint: disable=IO001 reason=covered by caller fsync\n"
            '    p.write_text("x")\n'
        )
        report = lint(source, module="repro.bench.fake", codes=["IO001"])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_wrong_code_does_not_suppress(self):
        source = 'def f(p):\n    p.write_text("x")  # repro-lint: disable=DET001 reason=wrong code\n'
        report = lint(source, module="repro.bench.fake", codes=["IO001"])
        assert codes_of(report) == ["IO001"]
        assert len(report.unused_suppressions) == 1

    def test_multi_code_suppression(self):
        source = (
            "import time\n"
            "def f(p):\n"
            "    stamp = time.time()  # repro-lint: disable=TIME001,DET001 reason=fixture\n"
            "    return stamp\n"
        )
        report = lint(source, module="repro.core.fake", codes=["TIME001"])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_parse_suppressions_shapes(self):
        lines = [
            "x = 1  # repro-lint: disable=AAA111 reason=why",
            "# repro-lint: disable=BBB222",
        ]
        suppressions = parse_suppressions("p.py", lines)
        assert suppressions[0].line == 1 and suppressions[0].explained
        assert suppressions[1].line == 3 and not suppressions[1].explained


# --------------------------------------------------------------------- #
# Select / ignore, runner and CLI
# --------------------------------------------------------------------- #
class TestRunnerAndCli:
    def test_resolve_codes_prefix_select(self):
        assert resolve_codes(["DET"], None) == ["DET001", "DET002"]

    def test_resolve_codes_ignore(self):
        codes = resolve_codes(None, ["SPEC001", "REG"])
        assert "SPEC001" not in codes and "REG001" not in codes
        assert "DET001" in codes

    def test_resolve_codes_unknown_select_raises(self):
        with pytest.raises(ConfigurationError, match="matches no registered rule"):
            resolve_codes(["ZZZ"], None)

    def test_module_name_for(self):
        assert (
            module_name_for(SRC / "core" / "engine_arena.py")
            == "repro.core.engine_arena"
        )
        assert (
            module_name_for(SRC / "core" / "neighbors" / "__init__.py")
            == "repro.core.neighbors"
        )

    def test_run_paths_on_tmp_tree(self, tmp_path):
        package = tmp_path / "repro" / "evaluation"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            'def f(p):\n    with open(p, "w") as h:\n        h.write("x")\n',
            encoding="utf-8",
        )
        (package / "good.py").write_text("VALUE = 1\n", encoding="utf-8")
        report = run_paths([tmp_path], select=["IO001"])
        assert report.files_checked == 2
        assert codes_of(report) == ["IO001"]
        ignored = run_paths([tmp_path], select=["IO001"], ignore=["IO001"])
        assert ignored.findings == []

    def test_run_paths_missing_path_raises(self):
        with pytest.raises(ConfigurationError, match="no such file"):
            run_paths(["definitely/not/here"])

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n", encoding="utf-8")
        report = run_paths([bad])
        assert codes_of(report) == ["SYNTAX"]
        assert not report.ok

    def test_json_report_round_trips(self):
        report = lint(
            'def f(p):\n    p.write_text("x")\n',
            module="repro.bench.fake",
            codes=["IO001"],
        )
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "IO001"
        assert payload["rules_run"] == ["IO001"]

    def test_cli_list_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert result.returncode == 0
        for code in ("DET001", "DET002", "SPEC001", "IO001", "REG001", "ERR001", "TIME001"):
            assert code in result.stdout

    def test_cli_finding_exit_code(self, tmp_path):
        bad = tmp_path / "repro_fixture.py"
        bad.write_text("import random\n", encoding="utf-8")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                str(bad),
                "--select",
                "DET001",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["findings"][0]["code"] == "DET001"
