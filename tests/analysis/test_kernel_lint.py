"""Kernel-invariant linter: seeded violations, suppression, repo hygiene."""

import ast
import json
import textwrap

from repro.analysis.concurrency.engine import analyze_paths, lint_code_main
from repro.analysis.kernel_lint import HOT_DIRS, lint_tree

HOT = "src/repro/partition/fake.py"
COLD = "src/repro/report/fake.py"


def ids(diags):
    return [d.rule_id for d in diags]


def lint(code, path=HOT):
    code = textwrap.dedent(code)
    diags, _refs = lint_tree(ast.parse(code), code, path)
    return diags


class TestKrn001SetIteration:
    def test_for_over_set_literal(self):
        diags = lint("for x in {1, 2}:\n    pass\n")
        assert ids(diags) == ["KRN001"]
        assert diags[0].location == f"{HOT}:1"

    def test_for_over_set_call_and_comprehension(self):
        assert ids(lint("for x in set(items):\n    pass\n")) == ["KRN001"]
        assert ids(lint("out = [x for x in {1, 2}]\n")) == ["KRN001"]
        assert ids(lint("g = (x for x in frozenset(a))\n")) == ["KRN001"]

    def test_set_method_chains_and_binops(self):
        assert ids(lint("for x in set(a).union(b):\n    pass\n")) == [
            "KRN001"
        ]
        assert ids(lint("for x in set(a) | other:\n    pass\n")) == [
            "KRN001"
        ]

    def test_ordered_consumers_of_sets(self):
        assert ids(lint("xs = list({1, 2})\n")) == ["KRN001"]
        assert ids(lint("for i, x in enumerate(set(a)):\n    pass\n")) == [
            "KRN001"
        ]
        assert ids(lint("s = ','.join({'a', 'b'})\n")) == ["KRN001"]
        assert ids(lint("out.extend(set(a))\n")) == ["KRN001"]

    def test_sorted_set_is_fine(self):
        assert lint("for x in sorted({1, 2}):\n    pass\n") == []

    def test_cold_paths_exempt(self):
        assert lint("for x in {1, 2}:\n    pass\n", path=COLD) == []

    def test_hot_dirs_cover_all_kernel_packages(self):
        assert set(HOT_DIRS) == {"graphs", "partition", "retiming", "flow"}


class TestKrn002UnseededRandom:
    def test_module_level_random(self):
        diags = lint("import random\nx = random.random()\n", path=COLD)
        assert ids(diags) == ["KRN002"]

    def test_unseeded_random_instance(self):
        assert ids(lint("rng = random.Random()\n", path=COLD)) == ["KRN002"]

    def test_seeded_random_instance_is_fine(self):
        assert lint("rng = random.Random(1996)\n", path=COLD) == []

    def test_from_import(self):
        diags = lint("from random import shuffle\n", path=COLD)
        assert ids(diags) == ["KRN002"]

    def test_rng_home_exempt(self):
        code = "import random\nx = random.random()\n"
        assert lint(code, path="src/repro/flow/rng.py") == []


class TestKrn002NumpyRandom:
    def test_np_random_func(self):
        diags = lint(
            "import numpy as np\nx = np.random.rand(3)\n", path=COLD
        )
        assert ids(diags) == ["KRN002"]
        assert "numpy" in diags[0].message
        assert "default_rng" in diags[0].fixit_hint

    def test_plain_numpy_import(self):
        assert ids(
            lint("import numpy\nx = numpy.random.shuffle(a)\n", path=COLD)
        ) == ["KRN002"]

    def test_numpy_random_module_alias(self):
        assert ids(
            lint("import numpy.random as npr\nx = npr.randint(9)\n", path=COLD)
        ) == ["KRN002"]

    def test_from_numpy_import_random(self):
        assert ids(
            lint("from numpy import random\nx = random.normal()\n", path=COLD)
        ) == ["KRN002"]

    def test_from_numpy_random_import_func(self):
        assert ids(
            lint("from numpy.random import shuffle\n", path=COLD)
        ) == ["KRN002"]

    def test_unseeded_default_rng(self):
        assert ids(
            lint(
                "from numpy.random import default_rng\nrng = default_rng()\n",
                path=COLD,
            )
        ) == ["KRN002"]

    def test_seeded_default_rng_is_fine(self):
        assert (
            lint(
                "from numpy.random import default_rng\n"
                "rng = default_rng(1996)\n",
                path=COLD,
            )
            == []
        )

    def test_non_rng_numpy_usage_is_fine(self):
        assert (
            lint(
                "import numpy as np\nx = np.zeros(3)\ny = np.arange(9)\n",
                path=COLD,
            )
            == []
        )

    def test_rng_home_exempt(self):
        code = "import numpy as np\nx = np.random.rand(3)\n"
        assert lint(code, path="src/repro/flow/rng.py") == []

    def test_unrelated_random_attr_not_confused(self):
        # `<obj>.random.<f>` where obj is not a numpy alias must not fire.
        assert (
            lint("x = cfg.random.choice\n", path=COLD) == []
        )


class TestSuppression:
    def test_same_line_marker(self):
        code = "for x in {1, 2}:  # lint: disable=KRN001\n    pass\n"
        assert lint(code) == []

    def test_all_marker(self):
        code = "for x in {1, 2}:  # lint: disable=all\n    pass\n"
        assert lint(code) == []

    def test_unrelated_marker_keeps_finding(self):
        code = "for x in {1, 2}:  # lint: disable=KRN002\n    pass\n"
        assert ids(lint(code)) == ["KRN001"]


class TestPairingContract:
    def test_krn003_use_compiled_without_reference(self):
        code = "def kern(graph, use_compiled=True):\n    return 1\n"
        assert ids(lint(code)) == ["KRN003"]

    def test_krn003_satisfied_by_reference_mention(self):
        code = (
            "def kern_reference(graph):\n"
            "    return 1\n"
            "def kern(graph, use_compiled=True):\n"
            "    if not use_compiled:\n"
            "        return kern_reference(graph)\n"
            "    return 1\n"
        )
        assert lint(code) == []

    def test_krn003_cold_paths_exempt(self):
        code = "def kern(graph, use_compiled=True):\n    return 1\n"
        assert lint(code, path=COLD) == []

    def test_krn004_untested_reference(self, tmp_path):
        src = tmp_path / "partition"
        src.mkdir()
        (src / "mod.py").write_text(
            "def kern_reference(g):\n    return 1\n"
        )
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text("def test_nothing():\n    pass\n")
        report = analyze_paths(
            [str(src)], tests_dir=str(tests), families=("KRN",)
        )
        assert ids(report.diagnostics) == ["KRN004"]

    def test_krn004_clean_when_tested(self, tmp_path):
        src = tmp_path / "partition"
        src.mkdir()
        (src / "mod.py").write_text(
            "def kern_reference(g):\n    return 1\n"
        )
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_mod.py").write_text(
            "from mod import kern_reference\n"
        )
        report = analyze_paths(
            [str(src)], tests_dir=str(tests), families=("KRN",)
        )
        assert not report.diagnostics


class TestRepoAndCli:
    def test_repo_sources_are_clean(self):
        report = analyze_paths(["src"], tests_dir="tests", families=("KRN",))
        assert not report.has_errors, report.render_text()

    def test_syntax_error_becomes_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_paths([str(bad)], families=("KRN",))
        assert report.has_errors
        assert "does not parse" in report.diagnostics[0].message

    def test_cli_seeded_violation_and_exit_codes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        mod = tmp_path / "retiming"
        mod.mkdir()
        (mod / "bad.py").write_text("for x in {1, 2}:\n    pass\n")
        assert lint_code_main([str(mod)]) == 1
        assert "KRN001" in capsys.readouterr().out
        assert lint_code_main([str(mod), "--suppress", "KRN001"]) == 0

    def test_cli_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mod = tmp_path / "flow"
        mod.mkdir()
        (mod / "bad.py").write_text("x = list(set(a))\n")
        assert lint_code_main([str(mod), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_errors"] == 1
        assert payload["diagnostics"][0]["rule_id"] == "KRN001"
