"""Outside-in tracing of genusone's layers, from the benchmark's own files.

``Tracer.install`` wraps the public functions and methods listed in
``TARGETS``.  A function is replaced wherever a caller looks it up: every
``genusone.*`` module global bound to it (so ``genusone.amalgam.cohomology_at``
and ``genusone.checks.cohomology_at`` are both wrapped), and, for methods,
the class attribute.  The verify suites are reached through the
``checks.SUITES`` dict, so its values are wrapped in place.

Each call records one span ``[name, start_ns, end_ns, parent, run, hook_ns,
value]``.  ``parent`` is the index of the enclosing span (-1 at the top),
``run`` names the command (``"<iteration>.<command>"``), and ``value`` is
what the span's hook measured (matrix entries, bit lengths, sample counts).
Hooks run after the span closes; ``hook_ns`` is their cost, which is taken
out of the parent's self time.  Spans stay in memory until the worker
reports them.
"""

import functools
import sys
import time
from collections import defaultdict
from importlib import import_module


def _differential_entries(args, kwargs, result):
    return sum(d.rows * d.cols for d in result.complex.differentials)


def _bits(args, kwargs, result):
    complex_ = args[0] if args else kwargs["complex_"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    entries = (abs(x) for m in (complex_.differential(n), complex_.differential(n - 1))
               for row in m for x in row)
    return [max((x.bit_length() for x in entries), default=0),
            max((f.bit_length() for f in result.invariant_factors), default=0)]


def _samples(args, kwargs, result):
    return result.samples


# (module, function or Class.method, metric that receives its self time, hook)
TARGETS = [
    ("group_modules", "standard_coefficient_module", "group_modules.build_s", None),
    ("group_modules", "GroupModule.reduce", "group_modules.build_s", None),
    ("group_modules", "GroupModule.__post_init__", "group_modules.build_s", None),
    ("cyclic", "CyclicAction.__post_init__", "cyclic.validate_s", None),
    ("cyclic", "CyclicAction.norm", "cyclic.norm_s", None),
    ("cyclic", "restriction_cochain_matrix", "cyclic.norm_s", None),
    ("amalgam", "build_total_complex", "amalgam.assemble_s", _differential_entries),
    ("amalgam", "sl2z_cohomology", "amalgam.assemble_s", None),
    ("amalgam", "sl2z_cohomology_module", "amalgam.assemble_s", None),
    ("exact_linalg", "CochainComplex.__init__", "exact_linalg.validate_s", None),
    ("exact_linalg", "cohomology_at", "exact_linalg.elimination_s", _bits),
    ("moduli", "e2_entry", "moduli.page_s", None),
    ("moduli", "e2_page", "moduli.page_s", None),
    ("moduli", "m11_group", "moduli.page_s", None),
    ("moduli", "complement_group", "moduli.page_s", None),
    ("moduli", "half_inverted_group", "moduli.page_s", None),
    ("moduli", "mod2_consistency", "moduli.page_s", None),
    ("moduli", "p_torsion_scan", "moduli.page_s", None),
    ("cochains", "verify_d_after_a", "cochains.verify_s", _samples),
    ("cochains", "verify_cup_primitive", "cochains.verify_s", _samples),
    ("oracles", "bar_cohomology", "oracles.bar_s", None),
    ("oracles", "rational_rank", "oracles.rank_divisor_s", None),
    ("oracles", "sparse_diagonal", "oracles.rank_divisor_s", None),
    ("oracles", "determinantal_invariant_factors", "oracles.rank_divisor_s", None),
    ("oracles", "random_known_complex", "oracles.planted_s", None),
    ("oracles", "random_cyclic_action", "oracles.planted_s", None),
    ("torsor", "h1_one_cocycles", "torsor.solver_s", None),
    ("torsor", "build_canonical_torsor", "torsor.config_s", None),
    ("torsor", "torsor_translation_orbit", "torsor.config_s", None),
    ("torsor", "torsor_matrix_action", "torsor.config_s", None),
    ("torsor", "torsor_nontriviality_witness", "torsor.config_s", None),
    ("torsor", "gl2_z4_group", "torsor.config_s", None),
    ("torsor", "cyclic_group_data", "torsor.config_s", None),
    ("exterior", "verify_square", "exterior.square_s", None),
    ("cli", "main", "cli.self_s", None),
]

SUITES = ("tables", "mod2", "torsor", "splitting", "periodicity", "ptorsion",
          "square", "oracles")

#: per-layer metrics and their units, in report order
LAYER_UNITS = {
    "group_modules.build_s": "s",
    "group_modules.modules_built": "count",
    "cyclic.validate_s": "s",
    "cyclic.norm_s": "s",
    "amalgam.assemble_s": "s",
    "amalgam.complexes_built": "count",
    "amalgam.differential_entries": "count",
    "amalgam.reuse_ratio": "ratio",
    "exact_linalg.validate_s": "s",
    "exact_linalg.elimination_s": "s",
    "exact_linalg.elimination_calls": "count",
    "exact_linalg.input_bits_max": "bits",
    "exact_linalg.output_bits_max": "bits",
    "moduli.page_s": "s",
    **{f"checks.{suite}_s": "s" for suite in SUITES},
    "cochains.verify_s": "s",
    "cochains.samples": "count",
    "oracles.bar_s": "s",
    "oracles.rank_divisor_s": "s",
    "oracles.planted_s": "s",
    "torsor.solver_s": "s",
    "torsor.config_s": "s",
    "exterior.square_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Wraps genusone's layer boundaries and records one span per call."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.run, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                record[6] = hook(args, kwargs, result)
                record[5] = clock() - record[2]
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "genusone" or name.startswith("genusone.")]
        for module_name, qualname, _, hook in TARGETS:
            module = import_module(f"genusone.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], hook))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(name, original, hook)
            for caller in modules:
                for attr, value in list(vars(caller).items()):
                    if value is original:
                        self._patch(caller, attr, wrapped)
        suites = import_module("genusone.checks").SUITES
        for suite, fn in list(suites.items()):
            self._patches.append((suites, suite, fn))
            suites[suite] = self.wrap(f"checks.{suite}", fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


_SELF_METRIC = {f"{m}.{q}": metric for m, q, metric, _ in TARGETS}


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced worker run, from its spans.

    Times are self times (span minus its direct children and their hooks),
    except ``checks.<suite>_s``, which is the suite's whole span: suites
    are the top of a verify run and do not nest, so their times add up to
    it.  ``trace.wall_s`` and ``trace.overhead_frac`` are added by the
    caller, which knows the wall times.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, hook_ns, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start + hook_ns
    values = defaultdict(float)
    calls = defaultdict(int)
    for index, (name, start, end, _, _, _, value) in enumerate(spans):
        calls[name] += 1
        if name.startswith("checks."):
            values[name + "_s"] += (end - start) / 1e9
            continue
        values[_SELF_METRIC[name]] += (end - start - child_ns[index]) / 1e9
        if name == "amalgam.build_total_complex":
            values["amalgam.differential_entries"] += value
        elif name == "exact_linalg.cohomology_at":
            values["exact_linalg.input_bits_max"] = max(
                values["exact_linalg.input_bits_max"], value[0])
            values["exact_linalg.output_bits_max"] = max(
                values["exact_linalg.output_bits_max"], value[1])
        elif name.startswith("cochains."):
            values["cochains.samples"] += value
    built = calls["amalgam.build_total_complex"]
    values["group_modules.modules_built"] = calls["group_modules.GroupModule.__post_init__"]
    values["amalgam.complexes_built"] = built
    values["amalgam.reuse_ratio"] = calls["amalgam.sl2z_cohomology"] / built if built else 0.0
    values["exact_linalg.elimination_calls"] = calls["exact_linalg.cohomology_at"]
    return {metric: values[metric] for metric in LAYER_UNITS
            if not metric.startswith("trace.")}
