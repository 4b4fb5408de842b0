"""Sanity checks of the example scripts and console entry point.

The examples are documentation as much as code: they must compile, expose a
``main()``, and — the drift audit — every ``from repro... import name`` they
contain must resolve against the *current* API (renames that would break an
example fail here without executing the script).  The cheap new example is
executed end-to-end at a shrunk workload; the heavier ones are exercised by
the CI docs-hygiene step and manually.
"""

import ast
import importlib
import importlib.util
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestExampleScripts:
    def test_at_least_three_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 3

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_compiles(self, path, tmp_path):
        py_compile.compile(str(path), cfile=str(tmp_path / (path.name + "c")), doraise=True)

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_defines_main(self, path):
        source = path.read_text(encoding="utf-8")
        assert "def main()" in source
        assert '__name__ == "__main__"' in source

    def test_examples_only_import_public_api(self):
        """Examples should not reach into private (underscore) modules."""
        for path in EXAMPLE_FILES:
            for line in path.read_text(encoding="utf-8").splitlines():
                stripped = line.strip()
                if stripped.startswith(("import repro", "from repro")):
                    assert "._" not in stripped, (path.name, stripped)

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
    def test_example_repro_imports_resolve(self, path):
        """Drift audit: every name an example imports from repro must exist."""
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        checked = 0
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (
                        f"{path.name} imports {alias.name!r} from {node.module}, "
                        f"which no longer exists"
                    )
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        importlib.import_module(alias.name)
                        checked += 1
        assert checked > 0, f"{path.name} imports nothing from repro"

    def test_sharded_serving_example_runs_at_a_shrunk_workload(self, capsys):
        """Execute the sharded-serving tour end-to-end with tiny sizes."""
        path = EXAMPLES_DIR / "sharded_serving.py"
        spec = importlib.util.spec_from_file_location("examples.sharded_serving", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.N_POINTS = 1_200
        module.N_RSMI_POINTS = 600
        module.SCENARIO_OPS = 120
        module.main()
        out = capsys.readouterr().out
        assert "per-shard points" in out
        assert "verified against the oracle" in out


class TestConsoleScript:
    def test_entry_point_importable(self):
        spec = importlib.util.find_spec("repro.experiments.cli")
        assert spec is not None

    def test_cli_runs_a_micro_experiment(self, capsys):
        from repro.experiments.cli import main
        from repro.experiments import EXPERIMENT_REGISTRY

        # patch-free micro run: ablation-rank at the tiny profile is the cheapest
        assert "ablation-rank" in EXPERIMENT_REGISTRY
        exit_code = main(["ablation-rank", "--profile", "tiny"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "rank-space" in captured

    @pytest.mark.parametrize("execution", ["sequential", "batched"])
    def test_cli_accepts_execution_modes(self, execution):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["fig6", "--execution", execution])
        assert args.execution == execution

    def test_cli_rejects_threaded_execution(self, capsys):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fig6", "--execution", "threaded"])
        assert exc.value.code == 2
        assert "invalid choice: 'threaded'" in capsys.readouterr().err

    def test_runner_has_no_threaded_execution(self):
        from repro.evaluation.runner import EXECUTION_MODES, engine_for_execution

        assert EXECUTION_MODES == ("sequential", "batched")
        with pytest.raises(ValueError, match="unknown execution mode"):
            engine_for_execution(object(), "threaded")
