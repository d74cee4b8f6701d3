"""Golden-snippet tests: every SAN rule fires on a known-bad fragment,
stays quiet on the sanctioned equivalent, and respects suppression
comments and fix-it hints."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import all_rule_ids, get_rule
from repro.analysis.engine import collect_files, module_name_for, render_report
from tests.analysis.reference_lint import lint_source


def lint(source: str, module: str = "repro.core.example", **kwargs):
    return lint_source(textwrap.dedent(source), module=module, path="example.py", **kwargs)


def ids(diags) -> list[str]:
    return [d.rule_id for d in diags]


# ---------------------------------------------------------------------------
# one known-bad snippet per rule (the acceptance-criteria seeded violations)
# ---------------------------------------------------------------------------

BAD_SNIPPETS = {
    "SAN001": """
        import time

        def probe_cost():
            return time.perf_counter()
    """,
    "SAN002": """
        import random

        def jitter():
            return random.random()
    """,
    "SAN003": """
        def same(elapsed_us, cost_us):
            return elapsed_us == cost_us
    """,
    "SAN006": """
        def run(step):
            try:
                step()
            except Exception:
                pass
    """,
    "SAN007": """
        from repro.simulator.probes import ProbeKind, ProbeRecord

        class Mapper:
            def explore(self, turns):
                self.stats.record(ProbeRecord(ProbeKind.HOST, turns, True, 1.0))
    """,
    "SAN008": """
        def collect(into=[]):
            into.append(1)
            return into
    """,
    "SAN009": """
        from repro.simulator.path_eval import evaluate_route
        from repro.simulator.quiescent import QuiescentProbeService

        class FastProbeService(QuiescentProbeService):
            def _walk(self, turns):
                return evaluate_route(self.net, self.mapper, turns)
    """,
    "SAN011": """
        class CappedProbeService:
            def __init__(self, inner):
                self._inner = inner

            def probe_host(self, turns):
                return self._inner.probe_host(turns)
    """,
    "SAN014": """
        from repro.simulator.stack import ProbeLayer

        class MeddlingLayer(ProbeLayer):
            def after(self, ctx):
                ctx.service.faults.drop_prob = 0.5
    """,
    "SAN015": """
        class GreedyMapper:
            def map(self):
                return None
    """,
}


@pytest.mark.parametrize("rule_id", sorted(BAD_SNIPPETS))
def test_bad_snippet_flags_exactly_this_rule(rule_id):
    diags = lint(BAD_SNIPPETS[rule_id])
    assert rule_id in ids(diags), f"{rule_id} did not fire"
    flagged = [d for d in diags if d.rule_id == rule_id]
    assert all(d.line > 0 and d.path == "example.py" for d in flagged)
    # The snippet is minimal: no *other* rule should fire on it.
    assert set(ids(diags)) == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(BAD_SNIPPETS))
def test_every_diag_carries_the_rules_hint(rule_id):
    (diag, *_rest) = [d for d in lint(BAD_SNIPPETS[rule_id]) if d.rule_id == rule_id]
    assert diag.hint == get_rule(rule_id).hint
    rendered = diag.render()
    assert rule_id in rendered and "hint:" in rendered
    assert "hint:" not in diag.render(show_hint=False)


def test_registry_has_the_thirteen_domain_rules():
    # SAN004, SAN005, SAN010, SAN012 and SAN013 are retired
    # (docs/STATIC_ANALYSIS.md, "Checked by tests"); their ids are never
    # reused.
    assert all_rule_ids() == [
        "SAN001", "SAN002", "SAN003", "SAN006", "SAN007",
        "SAN008", "SAN009", "SAN011", "SAN014", "SAN015",
    ]


# ---------------------------------------------------------------------------
# per-rule positive/negative pairs beyond the minimal snippets
# ---------------------------------------------------------------------------

def test_san001_only_applies_to_simulated_time_packages():
    src = """
        import time

        def stamp():
            return time.time()
    """
    assert ids(lint(src, module="repro.simulator.timing")) == ["SAN001"]
    assert ids(lint(src, module="repro.core.mapper")) == ["SAN001"]
    assert ids(lint(src, module="repro.experiments.fig7")) == []


def test_san001_flags_from_time_import_and_datetime_now():
    src = """
        from time import perf_counter
        from datetime import datetime

        def stamp():
            return perf_counter(), datetime.now()
    """
    assert ids(lint(src, module="repro.simulator.timing")) == ["SAN001", "SAN001"]


def test_san002_allows_seeded_rng_and_flags_numpy_legacy():
    good = """
        import random

        def jitter(seed):
            rng = random.Random(seed)
            return rng.random()
    """
    assert ids(lint(good)) == []
    bad_np = """
        import numpy as np

        def noise():
            return np.random.normal()
    """
    assert ids(lint(bad_np)) == ["SAN002"]
    good_np = """
        import numpy as np

        def noise(seed):
            return np.random.default_rng(seed).normal()
    """
    assert ids(lint(good_np)) == []
    # A seedable constructor called with nothing seeds from OS entropy.
    no_seed = """
        import random
        import numpy as np

        def make():
            return random.Random(), np.random.default_rng()
    """
    assert ids(lint(no_seed)) == ["SAN002", "SAN002"]


def test_san002_flags_from_random_import():
    assert ids(lint("from random import choice\n")) == ["SAN002"]
    assert ids(lint("from random import Random\n")) == []


def test_san003_ignores_none_and_non_timing_names():
    assert ids(lint("def f(cost_us):\n    return cost_us is None\n")) == []
    assert ids(lint("def f(cost_us):\n    return cost_us == None\n")) == []
    assert ids(lint("def f(name, other):\n    return name == other\n")) == []
    assert ids(lint("def f(elapsed_us):\n    return elapsed_us < 3.0\n")) == []
    assert ids(lint("def f(self):\n    return self._now != 0.0\n")) == ["SAN003"]


def test_san006_honest_handlers_pass():
    reraise = """
        def f(step):
            try:
                step()
            except Exception:
                raise
    """
    assert ids(lint(reraise)) == []
    stored = """
        def f(step, box):
            try:
                step()
            except BaseException as exc:
                box.error = exc
    """
    assert ids(lint(stored)) == []
    logged = """
        import logging

        def f(step):
            try:
                step()
            except Exception:
                logging.exception("step failed")
    """
    assert ids(lint(logged)) == []
    bare = "def f(step):\n    try:\n        step()\n    except:\n        pass\n"
    assert ids(lint(bare)) == ["SAN006"]
    unused_bind = """
        def f(step):
            try:
                step()
            except Exception as exc:
                pass
    """
    assert ids(lint(unused_bind)) == ["SAN006"]


def test_san007_allows_service_classes_and_simulator_package():
    service = """
        from repro.simulator.probes import ProbeKind, ProbeRecord

        class MyProbeService:
            def probe_host(self, turns):
                rec = ProbeRecord(ProbeKind.HOST, turns, True, 1.0)
                self.stats.record(rec)
                return None
    """
    # SAN011 separately forbids the ad-hoc wrapper itself; SAN007 only
    # cares that the record is built *inside* a service implementation.
    assert ids(lint(service, ignore=("SAN011",))) == []
    subclass = """
        from repro.simulator.probes import ProbeKind, ProbeRecord
        from repro.simulator.quiescent import QuiescentProbeService

        class Derived(QuiescentProbeService):
            def _extra(self, turns):
                return ProbeRecord(ProbeKind.HOST, turns, True, 1.0)
    """
    assert ids(lint(subclass)) == []
    assert ids(lint(BAD_SNIPPETS["SAN007"], module="repro.simulator.helper")) == []


def test_san008_none_default_is_fine():
    assert ids(lint("def f(into=None):\n    return into or []\n")) == []
    assert ids(lint("f = lambda acc={}: acc\n")) == ["SAN008"]


def test_san009_fires_in_subclassed_services_and_every_package():
    subclass = """
        from repro.simulator.path_eval import evaluate_route
        from repro.simulator.quiescent import QuiescentProbeService

        class Derived(QuiescentProbeService):
            def _shortcut(self, turns):
                return evaluate_route(self.net, self.mapper, turns)
    """
    assert ids(lint(subclass)) == ["SAN009"]
    # Unlike SAN007 there is no package exemption: the simulator's own
    # escape hatch uses line-level disable comments instead.
    assert ids(
        lint(BAD_SNIPPETS["SAN009"], module="repro.simulator.helper")
    ) == ["SAN009"]


def test_san009_quiet_outside_services_and_via_evaluator():
    free_function = """
        from repro.simulator.path_eval import evaluate_route

        def verify(net, host, turns):
            return evaluate_route(net, host, turns)
    """
    assert ids(lint(free_function)) == []
    evaluator = """
        from repro.simulator.path_eval import IncrementalPathEvaluator

        class CachedProbeService:
            def probe_host(self, turns):
                return self._evaluator.probe_info(self.mapper, turns, self.collision)
    """
    assert ids(lint(evaluator, ignore=("SAN011",))) == []


def test_san009_disable_comment_is_the_escape_hatch():
    src = """
        from repro.simulator.path_eval import evaluate_route

        class EscapeProbeService:
            def probe_host(self, turns):
                return evaluate_route(self.net, self.mapper, turns)  # sanlint: disable=SAN009
    """
    assert ids(lint(src, ignore=("SAN011",))) == []


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------

def test_line_suppression_silences_named_rule():
    src = """
        import random

        def jitter():
            return random.random()  # sanlint: disable=SAN002
    """
    assert ids(lint(src)) == []


def test_line_suppression_is_rule_specific():
    src = """
        import random

        def jitter():
            return random.random()  # sanlint: disable=SAN008
    """
    assert ids(lint(src)) == ["SAN002"]


def test_line_suppression_without_ids_silences_all():
    src = """
        import random

        def jitter():
            return random.random()  # sanlint: disable
    """
    assert ids(lint(src)) == []


def test_file_suppression():
    src = """
        # sanlint: disable-file=SAN002
        import random

        def jitter():
            return random.random()

        def collect(into=[]):
            return into
    """
    assert ids(lint(src)) == ["SAN008"]


def test_select_and_ignore():
    src = BAD_SNIPPETS["SAN002"] + BAD_SNIPPETS["SAN008"].replace("def collect", "def collect2")
    assert ids(lint(src, select=["SAN002"])) == ["SAN002"]
    assert ids(lint(src, ignore=["SAN002"])) == ["SAN008"]


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

def test_render_report_counts_and_clean():
    diags = lint(BAD_SNIPPETS["SAN008"])
    report = render_report(diags)
    assert "sanlint: 1 violation" in report
    assert render_report([]) == "sanlint: clean"


def test_module_name_for_walks_packages(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    mod = pkg / "mapper.py"
    mod.write_text("x = 1\n")
    assert module_name_for(mod) == "repro.core.mapper"
    assert module_name_for(pkg / "__init__.py") == "repro.core"


def test_collect_files_dedupes_and_sorts(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("")
    b.write_text("")
    assert collect_files([tmp_path, a]) == [a, b]
    with pytest.raises(FileNotFoundError):
        collect_files([tmp_path / "missing.py"])


def test_syntax_error_becomes_san000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    from repro.analysis.engine import lint_paths

    diags = lint_paths([bad])
    assert [d.rule_id for d in diags] == ["SAN000"]
    assert "could not parse" in diags[0].message


def test_san011_flags_each_canonical_method_once():
    src = """
        class ChattyProbeService:
            def probe_host(self, turns):
                return None

            def probe_switch(self, turns):
                return False

            def probe_loopback(self, turns):
                return False

            def probe_host_any(self, turns):
                return None

            def probe_switch_id(self, turns):
                return None
    """
    assert ids(lint(src)) == ["SAN011"] * 5


def test_san011_quiet_inside_the_stack_modules():
    src = """
        class QuiescentProbeService:
            def probe_host(self, turns):
                return None
    """
    assert ids(lint(src, module="repro.simulator.quiescent")) == []
    assert ids(lint(src, module="repro.simulator.stack")) == []
    assert "SAN011" in ids(lint(src, module="repro.core.mapper"))


def test_san011_skips_protocol_declarations():
    src = """
        from typing import Protocol

        class ProbeService(Protocol):
            def probe_host(self, turns):
                ...
    """
    assert ids(lint(src, module="repro.simulator.probes")) == []


def test_san011_flags_a_probe_kind_on_a_subclass_outside_the_stack():
    src = """
        from repro.simulator.quiescent import QuiescentProbeService

        class SelfIdProbeService(QuiescentProbeService):
            def probe_switch_id(self, turns):
                ctx = self._transact(None, turns, self._eval)
                return ctx.response if ctx.hit else None

        class EarlyHostProbeService(QuiescentProbeService):
            def probe_host_any(self, turns):
                ctx = self._transact(None, turns, self._eval)
                return ctx.payload if ctx.hit else None
    """
    assert ids(lint(src, module="repro.baselines.selfid")) == ["SAN011", "SAN011"]


def test_san015_registered_class_and_pedagogical_run_only_are_quiet():
    registered = """
        from repro.core.mapper_protocol import register_mapper

        @register_mapper("greedy", summary="greedy probing")
        class GreedyMapper:
            def map(self):
                return None
    """
    assert ids(lint(registered, module="repro.extensions.greedy")) == []
    # run() only: not the Mapper protocol, so it needs no registration.
    pedagogical = """
        class TeachingMapper:
            def run(self):
                return None
    """
    assert ids(lint(pedagogical)) == []


def test_san015_subclass_of_a_mapper_must_register():
    src = """
        from repro.core.mapper import BerkeleyMapper

        class TweakedMapper(BerkeleyMapper):
            pass
    """
    assert ids(lint(src, module="repro.extensions.tweaked")) == ["SAN015"]


def test_san015_construction_only_in_core_or_the_defining_module():
    call = """
        from repro.core.mapper import BerkeleyMapper

        def run(svc, depth):
            return BerkeleyMapper(svc, search_depth=depth).map()
    """
    assert ids(lint(call, module="repro.experiments.fig4")) == ["SAN015"]
    assert ids(lint(call, module="repro.core.election")) == []
    via_registry = """
        from repro.core.mapper_protocol import create_mapper

        def run(svc, depth):
            return create_mapper("berkeley", svc, search_depth=depth).map()
    """
    assert ids(lint(via_registry, module="repro.experiments.fig4")) == []


def test_san015_defining_module_may_construct_its_own_class():
    src = """
        from repro.core.mapper_protocol import register_mapper

        @register_mapper("greedy", summary="greedy probing")
        class GreedyMapper:
            def map(self):
                return None

        def quick_map(svc, depth):
            return GreedyMapper(svc, search_depth=depth).map()
    """
    assert ids(lint(src, module="repro.extensions.greedy")) == []


def test_san015_protocol_declarations_are_exempt():
    src = """
        from typing import Protocol

        class RichMapper(Protocol):
            def map(self):
                ...
    """
    assert ids(lint(src, module="repro.extensions.api")) == []
