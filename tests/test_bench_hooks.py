"""The benchmark's tracing hooks name entry points that the program still has.

``perfbench/tracing.py`` wraps each ``(module, attribute path)`` of its
``HOOKS`` at run time and counts the ones it cannot find. This reads the list
and resolves each target the same way, without installing any hook.
"""

import importlib
import importlib.util
from pathlib import Path

# Hooks whose targets the program no longer has, awaiting an edit of the
# benchmark: the per-node gradient became the batched ``grad_f_nodes``, and
# the duality gap reads ``PrimalProblem.primal_value``.
KNOWN_MISSING = {
    "ecvr.problem.PrimalProblem.grad_f_node",
    "ecvr.problem.DualProblem.primal_value",
}


def load_hooks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_hook_but_the_known_missing_resolves():
    hooks = load_hooks()
    assert len(hooks) > len(KNOWN_MISSING)
    missing = {f"{module}.{path}" for _, module, path in hooks if not resolves(module, path)}
    assert missing <= KNOWN_MISSING
