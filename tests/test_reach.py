"""The reachability census: the tree has no unreached public name and
no unset knob, and the walk's rules hold on small synthetic trees."""

from __future__ import annotations

import textwrap

from tools.reach import ALLOW, ALLOW_KNOBS, census, main

CLI = """
    from .lib import serve

    def cmd_run(args):
        return serve()

    _COMMANDS = {"run": cmd_run}

    def main(argv):
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


KNOBS = """
    from dataclasses import dataclass

    def by_keyword(data, level=6):
        return data, level

    def by_position(data, level=6):
        return data, level

    def tested_only(data, level=6):
        return data, level

    def make_backend(machine="p9", credits=16):
        return machine, credits

    class Pool:
        def __init__(self, chips=1, **backend_kwargs):
            self.backend = make_backend(**backend_kwargs)

    @dataclass
    class Config:
        depth: int = 4
        count: int = 0

    def bump(config):
        config.count += 1
"""

DEMO = """
    from repro.knobs import (Config, Pool, bump, by_keyword, by_position,
                             tested_only)

    by_keyword(b"", level=9)
    by_position(b"", 9)
    Pool(credits=8)
    bump(Config())
    tested_only(b"")
"""


def knob_tree(tmp_path):
    return tree(tmp_path, {
        "src/repro/knobs.py": KNOBS, "examples/demo.py": DEMO,
        "tests/test_knobs.py": """
            from repro.knobs import tested_only

            def test_it():
                assert tested_only(b"", level=1)[1] == 1
        """})


def test_every_public_name_is_reached_or_allow_listed(capsys):
    """Every knob, too: set by a root or allow-listed."""
    assert main() == 0
    out, err = capsys.readouterr()
    assert err == ""
    for name, reason in {**ALLOW, **ALLOW_KNOBS}.items():
        assert f"  {name}: {reason}\n" in out
    assert " knobs: " in out and ", 0 unset\n" in out


def test_a_knob_only_a_unit_test_sets_is_reported(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={})
    assert "repro.knobs.tested_only(level=)" in result.unset
    assert "unset knob: repro.knobs.tested_only(level=)" in result.problems


def test_a_knob_a_root_passes_is_set(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={})
    demo = {"example:demo"}
    assert result.knobs["repro.knobs.by_keyword(level=)"] == demo
    assert result.knobs["repro.knobs.by_position(level=)"] == demo
    # Pool(credits=) reaches make_backend through Pool's **backend_kwargs.
    assert result.knobs["repro.knobs.make_backend(credits=)"] == demo
    assert set(result.unset) >= {"repro.knobs.make_backend(machine=)",
                                 "repro.knobs.Pool(chips=)",
                                 "repro.knobs.Config(depth=)"}


def test_a_dataclass_field_the_code_writes_is_not_a_knob(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={})
    assert "repro.knobs.Config(depth=)" in result.knobs
    assert "repro.knobs.Config(count=)" not in result.knobs


OPTIONS = """
    import argparse
    from dataclasses import dataclass

    @dataclass
    class Options:
        strategy: str = "auto"
        mode: str = "fast"
        level: int = 6

    def cmd(args: argparse.Namespace):
        args.strategy = "fixed"
        return Options()

    def main(argv):
        ns = argparse.ArgumentParser().parse_args(argv)
        ns.mode = "slow"
        return cmd(ns)

    def tune(args):
        args.level = 1
"""


def options_tree(tmp_path):
    return tree(tmp_path, {
        "src/repro/options.py": OPTIONS, "examples/demo.py": """
            from repro.options import Options, main, tune

            main([])
            tune(Options())
        """})


def test_an_option_set_on_an_argparse_namespace_is_no_field_write(
        tmp_path):
    """``args.strategy = ...`` on a namespace (annotated, or bound to
    ``parse_args()``) does not make a same-named field state."""
    result = census(options_tree(tmp_path), allow={}, allow_knobs={})
    assert "repro.options.Options(strategy=)" in result.unset
    assert "repro.options.Options(mode=)" in result.unset


def test_a_field_written_through_any_other_name_is_state(tmp_path):
    """The same store on an instance the code cannot type — even one
    named ``args`` — still makes the field state, not a knob."""
    result = census(options_tree(tmp_path), allow={}, allow_knobs={})
    assert "repro.options.Options(level=)" not in result.knobs


def test_a_knob_allow_list_entry_with_no_reason_fails(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={
        "repro.knobs.tested_only(level=)": " "})
    assert "knob allow-list entry repro.knobs.tested_only(level=) gives " \
        "no reason" in result.problems
    assert "repro.knobs.tested_only(level=)" not in result.unset


def test_a_knob_allow_list_entry_for_a_missing_knob_fails(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={
        "repro.knobs.by_keyword(gone=)": "reason"})
    assert "knob allow-list entry repro.knobs.by_keyword(gone=) names " \
        "nothing" in result.problems


def test_a_knob_allow_list_entry_for_a_set_knob_fails(tmp_path):
    result = census(knob_tree(tmp_path), allow={}, allow_knobs={
        "repro.knobs.by_keyword(level=)": "reason"})
    assert "knob allow-list entry repro.knobs.by_keyword(level=) is set " \
        "from example:demo" in result.problems


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
        **allow, "repro.lib.Thing.never_read": "kept for a reason"},
        allow_knobs={})
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
