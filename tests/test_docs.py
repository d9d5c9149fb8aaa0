"""The README and the experiments guide name exactly what the program has."""

import importlib
import json
import pathlib
import pkgutil
import re

import pathcoupling
from pathcoupling import cli, experiments

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _listed(text, label):
    """The backticked names between ``label`` and the next full stop."""
    start = text.index(label) + len(label)
    return re.findall(r"`([^`]+)`", text[start : text.index(".", start)])


def test_the_readme_lists_every_constructor_and_verify_test():
    readme = (ROOT / "README.md").read_text()
    assert _listed(readme, "Constructors:") == list(cli._COUPLINGS)
    assert _listed(readme, "Verify tests:") == list(cli._TESTS)


def test_the_experiments_guide_has_one_section_per_experiment():
    headings = re.findall(r"^## (.+)$", (ROOT / "docs" / "experiments.md").read_text(), flags=re.MULTILINE)
    assert sorted(headings) == sorted(experiments.EXPERIMENTS)


def test_the_experiments_guide_lists_exactly_the_override_flags():
    # an override flag replaces a config field of the experiment; a removed flag cannot stay documented
    experiment = cli.build_parser()._subparsers._group_actions[0].choices["experiment"]
    flags = {flag for action in experiment._actions if action.dest in cli._OVERRIDES for flag in action.option_strings}
    listed = _listed((ROOT / "docs" / "experiments.md").read_text(), "Overrides:")
    assert sorted(listed) == sorted(flags)


def test_each_experiment_section_names_every_verdict_it_returns(tiny):
    # a verdict the guide never names in full is one a reader of a report cannot look up
    text = (ROOT / "docs" / "experiments.md").read_text()
    sections = dict(re.findall(r"^## (.+?)\n(.*?)(?=^## |\Z)", text, flags=re.MULTILINE | re.DOTALL))
    for kind, fn in experiments.EXPERIMENTS.items():
        verdicts = {v["name"] for v in fn(**tiny[kind])["verdicts"]}
        assert not verdicts - set(re.findall(r"`([^`]+)`", sections[kind])), kind


def test_the_readme_run_config_runs(tmp_path):
    # a config change the README misses fails here: its run config couples, costs and verifies
    readme = (ROOT / "README.md").read_text()
    text = re.search(r"the shape is\s*```json\n(.*?)```", readme, flags=re.DOTALL).group(1)
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert json.loads(text)["version"] == cli.CONFIG_VERSION
    for command in ("couple", "cost", "verify"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_OK, command


def test_every_module_attribute_the_docs_name_exists():
    # a deleted or renamed function the docs still name in backticks fails here; file names are skipped
    modules = {m.name for m in pkgutil.iter_modules(pathcoupling.__path__)}
    named = {
        (module, name)
        for doc in ("README.md", "docs/experiments.md")
        for module, name in re.findall(r"`([a-z]+)\.([A-Za-z_]\w*)`", (ROOT / doc).read_text())
        if module in modules and name not in ("json", "jsonl", "csv", "bin")
    }
    assert named
    missing = [f"{m}.{n}" for m, n in sorted(named) if not hasattr(importlib.import_module(f"pathcoupling.{m}"), n)]
    assert not missing
