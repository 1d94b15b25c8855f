"""One budget policy: only Meter.tick cuts a search short, and the budget
is a per-run setting (search.budget), not a parameter passed down.

The recipes are the exception to the second rule: each declares
``budget``, unread, because the CLI builds a recipe's options from its
signature.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liegeom"


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods and nested ones
    included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, name + ".")
        else:
            yield from _functions(node, prefix)


def _raises_budget(node) -> bool:
    """node itself, not a nested function, constructs BudgetExceeded."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(n, ast.Call) and "BudgetExceeded" in (getattr(n.func, "id", None),
                                                            getattr(n.func, "attr", None)):
            return True
        todo.extend(ast.iter_child_nodes(n))
    return False


def _params(fn):
    a = fn.args
    return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}


def policy_breaches(source: str, module: str) -> list[str]:
    out = []
    for name, fn in _functions(ast.parse(source)):
        where = f"{module}.{name}"
        if _raises_budget(fn) and where != "search.Meter.tick":
            out.append(f"{where} raises BudgetExceeded")
        if "budget" in _params(fn) and not (module == "recipes" and name.startswith("_recipe_")):
            out.append(f"{where} takes a budget")
    return out


def test_one_budget_policy():
    breaches = [b for path in sorted(SRC.glob("*.py"))
                for b in policy_breaches(path.read_text(), path.stem)]
    assert breaches == []


def test_policy_breaches_are_caught():
    src = ("def search(g, budget=None):\n"
           "    def dfs():\n"
           "        raise S.BudgetExceeded('x')\n"
           "class Meter:\n"
           "    def tick(self):\n"
           "        raise BudgetExceeded('y')\n"
           "def _recipe_x(rep, budget=None):\n"
           "    pass\n")
    assert policy_breaches(src, "search") == ["search.search takes a budget",
                                              "search.search.dfs raises BudgetExceeded",
                                              "search._recipe_x takes a budget"]
    assert policy_breaches(src, "recipes") == ["recipes.search takes a budget",
                                               "recipes.search.dfs raises BudgetExceeded",
                                               "recipes.Meter.tick raises BudgetExceeded"]
