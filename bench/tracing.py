"""Layer spans recorded from outside the program.

The benchmark wraps the public functions of each dilatlab module, and the
``dil`` and distance closures of each built structure, in spans. A span
records its call count, inclusive time and self time (inclusive time minus
the child spans it contains), aggregated in memory as the calls return.
Wrappers are installed into every dilatlab namespace that binds the wrapped
function, because modules import each other's functions by name (carnot
binds flow_exp and chart_inverse, axioms binds richardson_limit and
gh_pointed_exact, cli binds build_structure).
"""

import functools
import sys
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

# (module, function) pairs traced as "<module>.<function>" spans.
TRACED = (
    ("vectorfields", "flow_exp"), ("vectorfields", "chart_inverse"),
    ("vectorfields", "frame_from_manifest"),
    ("carnot", "cc_distance"), ("carnot", "heisenberg_cc"),
    ("axioms", "check_A0_A1"), ("axioms", "check_A2"), ("axioms", "estimate_dx"),
    ("axioms", "derive_sigma_inv"), ("axioms", "check_conical_group"),
    ("axioms", "check_tangent_cone"), ("axioms", "check_profile_theorem"),
    ("limits", "richardson_limit"),
    ("geometry", "sample_ball"),
    ("gromov", "gh_pointed_exact"), ("gromov", "metric_profile"),
    ("cli", "main"),
)


class Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span aggregates plus named counters, keyed by span name."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self._stack = []  # [name, time spent in child spans]
        self._undo = []

    def wrap(self, name, fn, on_exit=None, alias=None):
        """Span around fn. on_exit(tracer, parent, args, kwargs, result) runs
        after a call returns normally; alias names a second aggregate (for example
        the per-structure dil breakdown) that receives the same timings."""
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                for key in (name, alias) if alias else (name,):
                    st = stats[key]
                    st.calls += 1
                    st.s += dt
                    st.self_s += dt - frame[1]
            if on_exit is not None:
                on_exit(self, parent, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every TRACED function in every dilatlab namespace binding it,
        plus scipy's minimize as carnot calls it, and cli's build_structure
        so that each structure the CLI builds carries traced closures."""
        from dilatlab import carnot, cli

        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["dilatlab." + mod_name], fn_name)
            span = "%s.%s" % (mod_name, fn_name)
            self._rebind(original, self.wrap(span, original, _HOOKS.get(span)))
        self._set(carnot, "minimize",
                  self.wrap("carnot.lbfgs", carnot.minimize, _lbfgs_exit))
        build = cli.build_structure
        self._set(cli, "build_structure", lambda name: self.traced_structure(build(name)))

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def _set(self, mod, attr, value):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dilatlab" or mod_name.startswith("dilatlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def traced_structure(self, ds):
        """Copy of a built structure whose dil and distance closures are traced.

        dil is named after the module that defines it: structures.dil for the
        closed-form dilatations, carnot.dil for sr_dilatation's flow chart.
        """
        layer = ds.dil.__module__.rsplit(".", 1)[-1]
        dil = self.wrap(layer + ".dil", ds.dil, alias="dil[%s]" % ds.name)
        space = replace(ds.space, distance=self.wrap("geometry.distance", ds.space.distance,
                                                     _distance_exit))
        return replace(ds, dil=dil, space=space)


# -- per-span hooks ----------------------------------------------------------


def _flow_exit(tr, parent, args, kwargs, result):
    steps = kwargs.get("steps", args[3] if len(args) > 3 else 256)
    rows = result.size // result.shape[-1]
    tr.counts["vectorfields.flow_exp.rk4_points"] += int(steps) * rows
    if parent == "vectorfields.chart_inverse":
        tr.counts["vectorfields.newton.iters"] += 1


def _lbfgs_exit(tr, parent, args, kwargs, result):
    tr.counts["carnot.lbfgs.nit"] += int(result.nit)
    tr.counts["carnot.lbfgs.nfev"] += int(result.nfev)


def _cc_exit(tr, parent, args, kwargs, result):
    # NoFeasiblePath propagates as an exception, so only feasible calls land here
    tr.counts["carnot.cc_distance.feasible"] += 1


def _richardson_exit(tr, parent, args, kwargs, result):
    tr.counts["limits.converged"] += bool(result.converged)
    tr.counts["limits.extrapolated"] += result.note == "richardson"


def _distance_exit(tr, parent, args, kwargs, result):
    if parent == "geometry.sample_ball":
        tr.counts["geometry.sample_ball.distance_calls"] += 1


def _sample_ball_exit(tr, parent, args, kwargs, result):
    tr.counts["geometry.sample_ball.accepted"] += len(result)


def _derive_exit(tr, parent, args, kwargs, td):
    # the tangent operations run lazily after derive_sigma_inv returns; trace
    # them so their axioms time is not booked to the caller
    for attr in ("dx", "delta_op", "sigma_op", "inv_op"):
        setattr(td, attr, tr.wrap("axioms.tangent_ops", getattr(td, attr)))


_HOOKS = {
    "vectorfields.flow_exp": _flow_exit,
    "carnot.cc_distance": _cc_exit,
    "limits.richardson_limit": _richardson_exit,
    "geometry.sample_ball": _sample_ball_exit,
    "axioms.derive_sigma_inv": _derive_exit,
}


# -- per-layer metrics --------------------------------------------------------

AXIOM_CHECKS = ("check_A0_A1", "check_A2", "estimate_dx", "derive_sigma_inv",
                "check_conical_group", "check_tangent_cone", "check_profile_theorem")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, jobs, traced_s, untraced_s, setup):
    """Per-layer metrics. Counts and times are per job of the traced pass,
    except the set-up split (per fresh process) and frame_from_manifest.s
    (one build); ratios are taken over the whole traced pass."""
    st, c = tr.stats, tr.counts
    per = lambda v: v / jobs  # noqa: E731
    flow, cinv = st["vectorfields.flow_exp"], st["vectorfields.chart_inverse"]
    lbfgs, ccd = st["carnot.lbfgs"], st["carnot.cc_distance"]
    rich, ball = st["limits.richardson_limit"], st["geometry.sample_ball"]
    m = {
        "vectorfields.flow_exp.calls": (per(flow.calls), "count"),
        "vectorfields.flow_exp.self_s": (per(flow.self_s), "s"),
        "vectorfields.flow_exp.rk4_points": (per(c["vectorfields.flow_exp.rk4_points"]), "count"),
        "vectorfields.chart_inverse.calls": (per(cinv.calls), "count"),
        "vectorfields.chart_inverse.self_s": (per(cinv.self_s), "s"),
        "vectorfields.newton.iters": (per(c["vectorfields.newton.iters"]), "count"),
        "vectorfields.frame_from_manifest.s": (st["vectorfields.frame_from_manifest"].s, "s"),
        "carnot.dil.calls": (per(st["carnot.dil"].calls), "count"),
        "carnot.dil.self_s": (per(st["carnot.dil"].self_s), "s"),
        "carnot.heisenberg_cc.calls": (per(st["carnot.heisenberg_cc"].calls), "count"),
        "carnot.heisenberg_cc.self_s": (per(st["carnot.heisenberg_cc"].self_s), "s"),
        "carnot.cc_distance.calls": (per(ccd.calls), "count"),
        "carnot.cc_distance.s": (per(ccd.s), "s"),
        "carnot.cc_distance.feasible_ratio": (_ratio(c["carnot.cc_distance.feasible"], ccd.calls),
                                              "ratio"),
        "carnot.lbfgs.solves": (per(lbfgs.calls), "count"),
        "carnot.lbfgs.nit": (per(c["carnot.lbfgs.nit"]), "count"),
        "carnot.lbfgs.nfev": (per(c["carnot.lbfgs.nfev"]), "count"),
        "carnot.lbfgs.s": (per(lbfgs.s), "s"),
        "carnot.lbfgs.ms_per_eval": (1000.0 * _ratio(lbfgs.s, c["carnot.lbfgs.nfev"]), "ms"),
    }
    for name in AXIOM_CHECKS:
        m["axioms.%s.s" % name] = (per(st["axioms." + name].s), "s")
    m.update({
        "axioms.self_s": (per(sum(v.self_s for k, v in st.items() if k.startswith("axioms."))),
                          "s"),
        "structures.dil.calls": (per(st["structures.dil"].calls), "count"),
        "structures.dil.self_s": (per(st["structures.dil"].self_s), "s"),
        "limits.richardson_limit.calls": (per(rich.calls), "count"),
        "limits.richardson_limit.self_s": (per(rich.self_s), "s"),
        "limits.converged_ratio": (_ratio(c["limits.converged"], rich.calls), "ratio"),
        "limits.extrapolated_ratio": (_ratio(c["limits.extrapolated"], rich.calls), "ratio"),
        "geometry.distance.calls": (per(st["geometry.distance"].calls), "count"),
        "geometry.distance.self_s": (per(st["geometry.distance"].self_s), "s"),
        "geometry.sample_ball.calls": (per(ball.calls), "count"),
        "geometry.sample_ball.s": (per(ball.s), "s"),
        "geometry.sample_ball.accept_ratio": (_ratio(c["geometry.sample_ball.accepted"],
                                                     c["geometry.sample_ball.distance_calls"]),
                                              "ratio"),
        "gromov.gh_pointed_exact.calls": (per(st["gromov.gh_pointed_exact"].calls), "count"),
        "gromov.gh_pointed_exact.s": (per(st["gromov.gh_pointed_exact"].s), "s"),
        "gromov.metric_profile.s": (per(st["gromov.metric_profile"].s), "s"),
        "cli.main.calls": (per(st["cli.main"].calls), "count"),
        "cli.main.self_s": (per(st["cli.main"].self_s), "s"),
        "cli.setup.import_s": (setup["import_s"], "s"),
        "cli.setup.build_s": (setup["build_s"], "s"),
        "trace.wall_s": (per(traced_s), "s"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    })
    return m


# Spans each workload must fire (> 0) or must leave alone (== 0). A rename in
# the program that unhooks a wrapper would otherwise zero a layer silently.
EXPECTED = {
    "flat-registry": {
        "nonzero": ["cli.main.calls", "structures.dil.calls", "geometry.distance.calls",
                    "limits.richardson_limit.calls", "geometry.sample_ball.calls",
                    "gromov.gh_pointed_exact.calls"]
                   + ["axioms.%s.s" % n for n in AXIOM_CHECKS],
        "zero": ["carnot.lbfgs.nfev", "carnot.dil.calls", "vectorfields.flow_exp.calls",
                 "carnot.cc_distance.calls"],
    },
    "heisenberg-tangent": {
        "nonzero": ["vectorfields.newton.iters", "vectorfields.flow_exp.calls",
                    "vectorfields.chart_inverse.calls", "carnot.dil.calls",
                    "carnot.heisenberg_cc.calls", "cli.main.calls",
                    "limits.richardson_limit.calls", "axioms.derive_sigma_inv.s"],
        "zero": ["carnot.lbfgs.nfev", "carnot.cc_distance.calls", "structures.dil.calls"],
    },
    "cc-solve": {
        "nonzero": ["carnot.cc_distance.calls", "carnot.lbfgs.solves", "carnot.lbfgs.nfev",
                    "vectorfields.frame_from_manifest.s"],
        "zero": ["vectorfields.flow_exp.calls", "vectorfields.chart_inverse.calls",
                 "cli.main.calls", "axioms.self_s"],
    },
}


def expectation_failures(workload, metrics):
    exp = EXPECTED[workload]
    bad = ["%s is 0 on %s" % (k, workload) for k in exp["nonzero"] if not metrics[k][0] > 0]
    bad += ["%s is %g on %s, expected 0" % (k, metrics[k][0], workload)
            for k in exp["zero"] if metrics[k][0] != 0]
    return bad


def layer_table(tr, traced_s):
    """Human-readable lines: each module's self time as a share of the traced
    wall time, and per-call costs in the units of the ROADMAP's baseline
    table."""
    st = tr.stats
    lines = []
    for layer in ("vectorfields", "carnot", "axioms", "structures", "limits",
                  "geometry", "gromov", "cli"):
        self_s = sum(v.self_s for k, v in st.items() if k.startswith(layer + "."))
        lines.append("self share  %-13s %6.2f%% of traced wall"
                     % (layer, 100.0 * _ratio(self_s, traced_s)))
    per_call = [(k[4:-1] + " dil", v, 1e6, "us") for k, v in sorted(st.items())
                if k.startswith("dil[")]
    per_call += [("flow_exp", st["vectorfields.flow_exp"], 1e3, "ms"),
                 ("chart_inverse", st["vectorfields.chart_inverse"], 1e3, "ms"),
                 ("heisenberg_cc", st["carnot.heisenberg_cc"], 1e6, "us"),
                 ("cc_distance", st["carnot.cc_distance"], 1.0, "s")]
    for label, v, scale, unit in per_call:
        if v.calls:
            lines.append("per call    %-32s %.4g %s (inclusive, %d calls)"
                         % (label, scale * v.s / v.calls, unit, v.calls))
    return lines
