"""The reference pipeline loop that the pipeline tests compare against.

``reference_run`` is the loop ``PassPipeline.run`` had before it became
the one-pipeline case of ``repro.optim.passes.run_pipelines``: rounds
over the pipeline's passes, each pass on every function that has a body,
stopping after a round that changed nothing or after ``max_iterations``
rounds.  It runs one pipeline, in place, and skips nothing.

``walk_runs`` derives from such runs the function-pass runs that one
``run_pipelines`` walk of the same pipelines makes, and
``record_pass_runs`` records the runs a walk actually makes.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from repro.optim.passes import OptimizationPass


def reference_run(pipeline, unit, log: Optional[list] = None) -> List[str]:
    """Run *pipeline* on *unit*; returns the names of passes that changed
    the AST, in execution order.

    With a *log*, appends one ``((round, pass name), runs)`` per step,
    where *runs* holds one ``(index, function name, history, changed)``
    per function: its index in ``unit.functions`` and the names of the
    passes that changed it before this step."""
    functions = [(index, fn) for index, fn in enumerate(unit.functions)
                 if fn.body is not None]
    histories = {index: () for index, _ in functions}
    changed_passes: List[str] = []
    for round_ in range(pipeline.max_iterations):
        changed_this_round = False
        for opt_pass in pipeline.passes:
            runs, step_changed = [], False
            for index, fn in functions:
                changed = opt_pass.run(fn)
                runs.append((index, fn.name, histories[index], changed))
                if changed:
                    histories[index] += (opt_pass.name,)
                    step_changed = True
            if log is not None:
                log.append(((round_, opt_pass.name), runs))
            if step_changed:
                changed_this_round = True
                changed_passes.append(opt_pass.name)
        if not changed_this_round:
            break
    return changed_passes


def walk_runs(logs: Sequence[list]) -> Counter:
    """The function-pass runs of one walk of the pipelines whose
    :func:`reference_run` logs are *logs*, as a count of ``(function name,
    pass name, changed)``.

    A step that the pipelines' executed prefixes share (the same passes
    in the same rounds) runs once, on each function, except that a pass
    runs on a function state only until it has once changed nothing
    there: a state is the function's index and history, and a pass that
    changed nothing on it is skipped wherever the state recurs."""
    steps, no_ops, runs = set(), set(), Counter()
    for log in logs:
        prefix = ()
        for step, functions in log:
            prefix += (step,)
            if prefix in steps:
                continue
            steps.add(prefix)
            for index, name, history, changed in functions:
                pair = (index, history, step[1])
                if pair in no_ops:
                    continue
                if not changed:
                    no_ops.add(pair)
                runs[name, step[1], changed] += 1
    return runs


def record_pass_runs(monkeypatch) -> list:
    """Wrap the ``run`` of every pass class with *monkeypatch*; returns
    the list to which each function-pass run then appends ``(function
    name, pass name, changed)``."""
    runs = []
    pending = list(OptimizationPass.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run" in vars(cls):
            def recorded(self, fn, _run=vars(cls)["run"]):
                changed = _run(self, fn)
                runs.append((fn.name, self.name, changed))
                return changed
            monkeypatch.setattr(cls, "run", recorded)
    return runs
