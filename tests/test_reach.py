"""The reachability census: the tree has no unreached public name, and
the walk's rules hold on small synthetic trees."""

from __future__ import annotations

import textwrap

from tools.reach import ALLOW, census, main

CLI = """
    from .lib import serve

    def cmd_run(args):
        return serve()

    _COMMANDS = {"run": cmd_run}

    def main(argv=None):
        return _COMMANDS["run"](argv)
"""

LIB = """
    _JOBS = {"job": "repro.jobs:run_job"}

    def serve():
        return _JOBS

    def only_tested():
        return 1

    class Thing:
        def read_by_a_root(self):
            return 2

        def never_read(self):
            return 3
"""


def tree(tmp_path, files: dict[str, str]):
    base = {"src/repro/__init__.py": "", "src/repro/cli.py": CLI,
            "src/repro/lib.py": LIB,
            "src/repro/jobs.py": "def run_job():\n    return 0\n"}
    for name, body in {**base, **files}.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return tmp_path


def test_every_public_name_is_reached_or_allow_listed(capsys):
    assert main() == 0
    out, err = capsys.readouterr()
    assert err == ""
    for name, reason in ALLOW.items():
        assert f"  {name}: {reason}\n" in out


def test_a_name_only_a_unit_test_calls_is_reported(tmp_path):
    result = census(tree(tmp_path, {"tests/test_lib.py": """
        from repro.lib import only_tested

        def test_it():
            assert only_tested() == 1
    """}), allow={})
    assert "repro.lib.only_tested" in result.unreached
    assert "unreached: repro.lib.only_tested" in result.problems
    assert "repro.lib.serve" not in result.unreached


def test_a_registry_string_reaches_its_target(tmp_path):
    result = census(tree(tmp_path, {}), allow={})
    assert result.reach["repro.jobs.run_job"] == {"cli:main", "cli:run"}


def test_a_lazy_export_reaches_its_target_and_only_when_read(tmp_path):
    result = census(tree(tmp_path, {
        "src/repro/__init__.py": """
            from ._lazy import lazy_exports

            __all__ = lazy_exports(__name__, {"lib": "only_tested Thing"})
        """,
        "examples/demo.py": """
            import repro

            print(repro.only_tested())
        """}), allow={})
    assert result.reach["repro.lib.only_tested"] == {"example:demo"}
    assert "repro.lib.Thing" in result.unreached


def test_a_method_is_reached_when_a_root_reads_its_name(tmp_path):
    result = census(tree(tmp_path, {"examples/demo.py": """
        from repro.lib import Thing

        thing = Thing()
        print(thing.read_by_a_root())
    """}), allow={})
    assert result.reach["repro.lib.Thing.read_by_a_root"] == {"example:demo"}
    assert "repro.lib.Thing.never_read" in result.unreached


def test_an_allow_listed_class_keeps_the_methods_reached_code_reads(tmp_path):
    # A root reads ``read_by_a_root`` (on anything); ``never_read`` needs
    # its own entry.
    files = {"examples/demo.py": "def show(obj):\n    obj.read_by_a_root()\n"}
    allow = {"repro.lib.only_tested": "kept for a reason",
             "repro.lib.Thing": "kept for a reason"}
    result = census(tree(tmp_path, files), allow=allow)
    assert result.unreached == ["repro.lib.Thing.never_read"]
    result = census(tree(tmp_path, files), allow={
        **allow, "repro.lib.Thing.never_read": "kept for a reason"})
    assert result.problems == []


def test_an_allow_list_entry_with_no_reason_fails(tmp_path):
    result = census(tree(tmp_path, {}), allow={"repro.lib.only_tested": " "})
    assert "allow-list entry repro.lib.only_tested gives no reason" \
        in result.problems


def test_an_allow_list_entry_for_a_missing_name_fails(tmp_path):
    result = census(tree(tmp_path, {}), allow={"repro.lib.gone": "reason"})
    assert "allow-list entry repro.lib.gone names nothing" in result.problems


def test_an_allow_list_entry_for_a_reached_name_fails(tmp_path):
    result = census(tree(tmp_path, {}), allow={"repro.lib.serve": "reason"})
    assert "allow-list entry repro.lib.serve is reached from cli:main, " \
        "cli:run" in result.problems
