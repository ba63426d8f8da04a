"""What `import hplateau` loads, checked in a fresh interpreter, and
that every top-level import of the package is used.

scipy.interpolate (and the scipy.special/optimize/fft stack it pulls in)
is imported only inside the two functions that use it: the star-domain
support spline and the radial identity audit's quintic spline.  Other
test modules import scipy.interpolate themselves, so only a new process
can tell whether the package loads it, and whether each lazy import
works when it is the first to run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import sys

import hplateau
import hplateau.cli

LAZY = ("scipy.interpolate", "scipy.special", "scipy.optimize")
early = [m for m in LAZY if m in sys.modules]
assert not early, f"import hplateau loaded {early}"


def star():
    samples = [1.0, 1.08, 1.0, 0.94, 1.0, 1.08, 1.0, 0.94]
    dom = hplateau.make_star2d(samples)
    rho = dom.support([1.0, 0.0])
    assert abs(rho - samples[0]) <= 1e-12, rho


def identity_audit():
    cfg = hplateau.SolveConfig(n=3, sigma_target=1.5, eps_schedule=(1e-2,),
                               mesh=hplateau.RadialMesh(51))
    field = hplateau.solve_radial(cfg, hplateau.make_ball(3, 1.0))
    rep = hplateau.nu_identity_audit(field, hplateau.AuditConfig())
    assert rep.samples > 0 and rep.sup_residual < 1e-3, rep


calls = {"star": star, "identity_audit": identity_audit}
for name in sys.argv[1:]:
    calls[name]()
    assert "scipy.interpolate" in sys.modules, name
print("ok")
"""


@pytest.mark.parametrize("order", [("star", "identity_audit"),
                                   ("identity_audit", "star")],
                         ids=["star-first", "audit-first"])
def test_interpolate_loads_only_at_its_call_sites(order):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *order], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _dotted(node):
    """'a.b.c' for the attribute chain a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _unused_imports(tree):
    """Names bound by the module's top-level imports that nothing reads.

    `import a.b` counts as used only where a chain a.b... is read, so a
    submodule import that only its parent package's uses cover is
    reported; a name listed in __all__ counts as read (a re-export).
    """
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            chain = _dotted(node)
            if chain:
                parts = chain.split(".")
                read.update(".".join(parts[:k + 1])
                            for k in range(len(parts)))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted((SRC / "hplateau").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
