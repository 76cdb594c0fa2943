"""Every flag of every ``deflect-gaze`` subcommand is read by its handler.

A flag counts as read when its handler's source reads ``args.<dest>`` or
``getattr(args, "<dest>")``, where ``args`` is the handler's first
parameter; nested functions in the handler count too.
"""

import argparse
import ast
import inspect
import textwrap

import pytest

from deflect_gaze.cli import build_parser


def subcommands(parser):
    """Subcommand name -> its subparser."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def read_names(func):
    """Attribute names that ``func`` reads from its first parameter."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    args = tree.body[0].args.args[0].arg
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == args):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id == args
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def unread_flags(parser):
    """Dests of ``parser``'s flags that its ``func`` default never reads."""
    read = read_names(parser.get_default("func"))
    return [a.dest for a in parser._actions
            if not isinstance(a, argparse._HelpAction) and a.dest not in read]


SUBCOMMANDS = subcommands(build_parser())


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_flag_is_read(name):
    assert unread_flags(SUBCOMMANDS[name]) == []


def _handler(args):
    def inner():
        return getattr(args, "in")
    args.out = "x"
    return args.seed, inner()


def test_checker_finds_unread_flags():
    p = argparse.ArgumentParser()
    for flag in ("--seed", "--in", "--out", "--cam"):
        p.add_argument(flag)
    p.set_defaults(func=_handler)
    # --out is only written, --cam never touched
    assert unread_flags(p) == ["out", "cam"]
