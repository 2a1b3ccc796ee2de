"""Per-layer tracing of switchopt from outside the package.

The tracer replaces public functions in the module namespaces their callers
look them up in (``switchopt.cli.minimize``, ``switchopt.gradients.
forward_sweep``, ...) with timed wrappers, and rebuilds problems with
``dataclasses.replace`` so that every model callback is counted.  Nothing in
the package is edited; ``uninstall`` puts every original back.

Each wrapped call opens a frame on one stack.  A frame's self time is its
duration minus the time of the frames of other layers directly below it;
a frame nested in a frame of the same layer hands its other-layer time to
that frame, so each layer's self time is counted once.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

# exception types the line search is seen to swallow, reported one by one
FAILED_TRIAL_TYPES = ("StepLimitExceeded", "StepUnderflow", "NonFiniteState",
                      "InvalidSwitchOrder")


class Tracer:
    """Counters and times gathered by the installed wrappers."""

    def __init__(self):
        self.time = defaultdict(float)    # key -> inclusive seconds
        self.count = defaultdict(int)     # key -> calls or events
        self.self_time = defaultdict(float)   # layer -> self seconds
        self.outer_time = defaultdict(float)  # layer -> outermost-frame seconds
        self._stack = []
        self._minimize = None             # open minimize call, if any
        self._patches = []
        self._marked = {}                 # bundle class -> marking subclass

    # -- frames ----------------------------------------------------------

    def call(self, layer, key, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.time[key] += dt
            self.count[key] += 1
            if parent is not None and parent[0] == layer:
                parent[1] += frame[1]
            else:
                self.self_time[layer] += dt - frame[1]
                self.outer_time[layer] += dt
                if parent is not None:
                    parent[1] += dt

    def timed(self, layer, key, fn):
        def wrapper(*args, **kwargs):
            return self.call(layer, key, fn, args, kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, module, name, wrapper):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def uninstall(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def install(self, mods):
        """Wrap the layer entry points of the loaded switchopt modules."""
        odeint, grads = mods.odeint, mods.gradients
        opt, ws, cli = mods.optimizer, mods.warmstart, mods.cli

        piecewise = self._integrate_piecewise(odeint.integrate_piecewise)
        self.patch(odeint, "integrate_piecewise", piecewise)
        self.patch(grads, "integrate_piecewise", piecewise)
        self.patch(grads, "integrate_with_quadrature",
                   self._integrate_with_quadrature(
                       grads.integrate_with_quadrature))

        fwd = self.timed("gradients", "forward_sweep", grads.forward_sweep)
        bwd = self.timed("gradients", "backward_sweep", grads.backward_sweep)
        evaluate = self._evaluate(grads.evaluate_gradient)
        dense = self.timed("gradients", "dense_trajectory",
                           grads.dense_trajectory)
        ftgc = self.timed("gradients", "free_time_gradient_check",
                          grads.free_time_gradient_check)
        for module in (grads, cli):
            for name, wrapper in (("forward_sweep", fwd),
                                  ("backward_sweep", bwd),
                                  ("evaluate_gradient", evaluate),
                                  ("dense_trajectory", dense),
                                  ("free_time_gradient_check", ftgc)):
                if hasattr(module, name):
                    self.patch(module, name, wrapper)
        # the optimizer's own evaluations: attempted, failed and used trials
        self.patch(opt, "evaluate_gradient", self._trial(evaluate))
        if hasattr(opt, "forward_sweep"):
            self.patch(opt, "forward_sweep", self._trial(fwd))

        minimize = self._minimize_wrapper(opt.minimize)
        secant = self._secant(opt.secant_switch)
        profile = self.timed("optimizer", "derivative_profile",
                             opt.derivative_profile)
        for module in (opt, cli):
            self.patch(module, "minimize", minimize)
            self.patch(module, "secant_switch", secant)
        self.patch(opt, "derivative_profile", profile)

        tv = self._solve_tv(ws.solve_tv_euler)
        detect = self.timed("warmstart", "detect_structure",
                            ws.detect_structure)
        for module in (ws, cli):
            self.patch(module, "solve_tv_euler", tv)
            self.patch(module, "detect_structure", detect)
        self.patch(ws, "tv_prox", self.timed("warmstart", "tv_prox",
                                             ws.tv_prox))

        build = cli.build_problem
        self.patch(cli, "build_problem",
                   lambda *a, **kw: self.wrap_problem(build(*a, **kw)))
        self.patch(cli, "main", self.timed("cli", "main", cli.main))

    # -- layer wrappers ----------------------------------------------------

    def _timed_rhs(self, rhs, key):
        def wrapper(*args):
            return self.call("gradients", key, rhs, args, {})
        return wrapper

    def _integrate_piecewise(self, fn):
        def wrapper(ode, *args, **kwargs):
            outermost = not self._stack or self._stack[-1][0] != "odeint"
            if outermost:
                # inside integrate_with_quadrature the callbacks are
                # already timed one level up
                ode = dataclasses.replace(
                    ode, rhs=self._timed_rhs(ode.rhs, "rhs"))
            n_rhs = self.count["rhs"]
            traj = self.call("odeint", "integrate_piecewise", fn,
                             (ode, *args), kwargs)
            segments = len(ode.segments) - 1
            attempted = (self.count["rhs"] - n_rhs - segments) // 6
            accepted = len(traj.step_times) - segments
            self.count["accepted_steps"] += accepted
            self.count["rejected_steps"] += attempted - accepted
            return traj
        return wrapper

    def _integrate_with_quadrature(self, fn):
        def wrapper(ode, x_start, integrand, *args, **kwargs):
            ode = dataclasses.replace(ode,
                                      rhs=self._timed_rhs(ode.rhs, "rhs"))
            integrand = self._timed_rhs(integrand, "integrand")
            return self.call("odeint", "integrate_with_quadrature", fn,
                             (ode, x_start, integrand, *args), kwargs)
        return wrapper

    def _evaluate(self, fn):
        def wrapper(*args, **kwargs):
            sweeps = self.time["forward_sweep"] + self.time["backward_sweep"]
            t0 = perf_counter()
            try:
                return self.call("gradients", "evaluate_gradient", fn,
                                 args, kwargs)
            finally:
                self.time["evaluate_self"] += (
                    perf_counter() - t0 - self.time["forward_sweep"]
                    - self.time["backward_sweep"] + sweeps)
        return wrapper

    def _trial(self, fn):
        """Count evaluations made by minimize, and the ones it goes on to use.

        A trial counts as used when the optimizer reads its gradient
        (``d_s``), which it does for the starting point and for every
        trial the line search accepts.
        """
        def wrapper(*args, **kwargs):
            run = self._minimize
            if run is None:
                return fn(*args, **kwargs)
            run["attempted"] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                run["raised"].append(exc)
                raise
            if hasattr(out, "d_s"):
                out = self._mark_on_gradient_read(out, run)
            return out
        return wrapper

    def _minimize_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            outer, run = self._minimize, {"attempted": 0, "used": 0,
                                          "raised": []}
            self._minimize = run
            escaped = None
            try:
                report = self.call("optimizer", "minimize", fn, args, kwargs)
            except Exception as exc:
                escaped = exc
                raise
            finally:
                self._minimize = outer
                swallowed = [e for e in run["raised"] if e is not escaped]
                self.count["trials_attempted"] += run["attempted"]
                self.count["trials_used"] += run["used"]
                self.count["trials_failed"] += len(swallowed)
                for exc in swallowed:
                    kind = type(exc).__name__
                    if kind not in FAILED_TRIAL_TYPES:
                        kind = "other"
                    self.count["failed." + kind] += 1
            self.count["iterations"] += report.iterations
            return report
        return wrapper

    def _secant(self, fn):
        def wrapper(*args, **kwargs):
            s, iters = self.call("optimizer", "secant_switch", fn, args,
                                 kwargs)
            self.count["secant_iterations"] += iters
            return s, iters
        return wrapper

    def _solve_tv(self, fn):
        def wrapper(*args, **kwargs):
            n_prox = self.count["tv_prox"]
            dcp = self.call("warmstart", "solve_tv_euler", fn, args, kwargs)
            passes = (self.count["tv_prox"] - n_prox) // dcp.u.shape[0]
            self.count["tv_iterations"] += dcp.iterations
            self.count["backtracks"] += passes - dcp.iterations
            return dcp
        return wrapper

    # -- problems ----------------------------------------------------------

    def wrap_problem(self, prob):
        """The same problem with every model callback counted and timed."""
        def cb(key, fn):
            return None if fn is None else self.timed("problem", key, fn)

        phases = tuple(
            dataclasses.replace(
                ph, law=cb("law", ph.law), lower=cb("bounds", ph.lower),
                upper=cb("bounds", ph.upper), law_x=cb("law_x", ph.law_x))
            for ph in prob.phases)
        return dataclasses.replace(
            prob, phases=phases, f=cb("f", prob.f), f_x=cb("f_x", prob.f_x),
            f_u=cb("f_u", prob.f_u), C=cb("C", prob.C),
            grad_C=cb("grad_C", prob.grad_C),
            case2_derivs=cb("case2_derivs", prob.case2_derivs))

    # -- report ------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics per pass: totals divided by ``passes``."""
        t, n = self.time, self.count

        def per(v):
            return v / passes

        rhs = n["rhs"]
        integrate = self.outer_time["odeint"]
        used, attempted = n["trials_used"], n["trials_attempted"]
        prox = t["tv_prox"]
        out = {
            "odeint.rhs_calls": (per(rhs), "count"),
            "odeint.accepted_steps": (per(n["accepted_steps"]), "count"),
            "odeint.rejected_steps": (per(n["rejected_steps"]), "count"),
            "odeint.integrate_s": (per(integrate), "s"),
            "odeint.self_s": (per(self.self_time["odeint"]), "s"),
            "odeint.us_per_rhs_call": (1e6 * integrate / rhs if rhs else 0.0,
                                       "us"),
            "gradients.forward_sweeps": (per(n["forward_sweep"]), "count"),
            "gradients.forward_sweep_ms": (per(1e3 * t["forward_sweep"]),
                                           "ms"),
            "gradients.backward_sweeps": (per(n["backward_sweep"]), "count"),
            "gradients.backward_sweep_ms": (per(1e3 * t["backward_sweep"]),
                                            "ms"),
            "gradients.evaluate_self_ms": (per(1e3 * t["evaluate_self"]),
                                           "ms"),
            "gradients.dense_trajectory_ms": (
                per(1e3 * t["dense_trajectory"]), "ms"),
            "optimizer.iterations": (per(n["iterations"]), "count"),
            "optimizer.gradient_evals": (per(attempted), "count"),
            "optimizer.rejected_trials": (
                per(attempted - used - n["trials_failed"]), "count"),
            "optimizer.failed_trials": (per(n["trials_failed"]), "count"),
            "optimizer.useful_eval_ratio": (used / attempted if attempted
                                            else 0.0, "ratio"),
            "optimizer.self_ms": (per(1e3 * self.self_time["optimizer"]),
                                  "ms"),
            "optimizer.secant_iterations": (per(n["secant_iterations"]),
                                            "count"),
            "warmstart.tv_iterations": (per(n["tv_iterations"]), "count"),
            "warmstart.prox_calls": (per(n["tv_prox"]), "count"),
            "warmstart.backtracks": (per(n["backtracks"]), "count"),
            "warmstart.prox_s": (per(prox), "s"),
            "warmstart.smooth_s": (per(t["solve_tv_euler"] - prox), "s"),
            "warmstart.detect_s": (per(t["detect_structure"]), "s"),
            "problem.f_calls": (per(n["f"]), "count"),
            "problem.f_x_calls": (per(n["f_x"]), "count"),
            "problem.f_u_calls": (per(n["f_u"]), "count"),
            "problem.law_calls": (per(n["law"]), "count"),
            "problem.callback_s": (per(self.outer_time["problem"]), "s"),
            "cli.self_ms": (per(1e3 * self.self_time["cli"]), "ms"),
        }
        for kind in FAILED_TRIAL_TYPES + ("other",):
            out["optimizer.failed_trials." + kind] = (
                per(n["failed." + kind]), "count")
        return out

    def _mark_on_gradient_read(self, bundle, run):
        """A copy of ``bundle`` that tells ``run`` when its d_s is first read."""
        cls = type(bundle)
        marked = self._marked.get(cls)
        if marked is None:
            def __getattribute__(obj, name):
                if name == "d_s":
                    d = object.__getattribute__(obj, "__dict__")
                    if not d.pop("_seen", True):
                        d.pop("_run")["used"] += 1
                return object.__getattribute__(obj, name)
            marked = type(cls.__name__, (cls,),
                          {"__getattribute__": __getattribute__})
            self._marked[cls] = marked
        out = object.__new__(marked)
        out.__dict__.update(bundle.__dict__, _seen=False, _run=run)
        return out
