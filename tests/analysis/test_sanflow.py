"""SAN014 across files, plus suppression and fix-it hints.

What is left of the whole-program ("sanflow") suite now that every rule is
a per-module rule: a layer subclass defined away from ``simulator/stack.py``
is still checked (recognised by its base-class name), and the suppression
comments and fix-it hints work for SAN014 / the no-argument RNG finding as
for every other rule. The file keeps its name so the test ids stay stable.
"""

from __future__ import annotations

import textwrap

from tests.analysis.test_mutants import install_copy, lint_ids
from tests.analysis.test_rules import ids, lint


def test_layer_subclass_across_modules_is_checked(tmp_path):
    own_attribute = """
        from repro.simulator.stack import CountingLayer

        class Sneaky(CountingLayer):
            def fire(self, payload):
                self.net_faults = payload
    """
    copy = install_copy(
        tmp_path / "own-attribute", "layers.py", textwrap.dedent(own_attribute)
    )
    # `net_faults` is the layer's own attribute, not simulator state.
    assert lint_ids(copy) == []
    simulator_state = """
        from repro.simulator.stack import CountingLayer

        class Sneaky(CountingLayer):
            def fire(self, payload):
                self.service.faults.__dict__.update(payload)
    """
    copy = install_copy(
        tmp_path / "simulator-state", "layers.py", textwrap.dedent(simulator_state)
    )
    assert lint_ids(copy) == ["SAN014"]


def test_san014_file_suppression():
    src = """
        # sanlint: disable-file=SAN014
        from repro.simulator.stack import ProbeLayer

        class Meddler(ProbeLayer):
            def after(self, ctx):
                ctx.service.faults.drop_prob = 0.5
    """
    assert ids(lint(src)) == []


def test_sanflow_diags_carry_fixit_hints():
    src = """
        import random

        def make():
            return random.Random()
    """
    [diag] = lint(src)
    assert diag.hint is not None and "seed" in diag.hint
