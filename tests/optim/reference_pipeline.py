"""The reference pipeline loop that the pipeline tests compare against.

``reference_run`` is the loop ``PassPipeline.run`` had before it became
the one-pipeline case of ``repro.optim.passes.run_pipelines``: rounds
over the pipeline's passes, stopping after a round that changed nothing
or after ``max_iterations`` rounds.  It runs one pipeline, in place.
"""

from __future__ import annotations

from typing import List


def reference_run(pipeline, unit, sema, ctx) -> List[str]:
    """Run *pipeline* on *unit*; returns the names of passes that changed
    the AST, in execution order."""
    changed_passes: List[str] = []
    for _ in range(pipeline.max_iterations):
        changed_this_round = False
        for opt_pass in pipeline.passes:
            if opt_pass.run(unit, sema, ctx):
                changed_this_round = True
                changed_passes.append(opt_pass.name)
                ctx.cover_point(f"{opt_pass.name}.changed")
        if not changed_this_round:
            break
    return changed_passes
