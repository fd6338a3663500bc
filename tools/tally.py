"""Print the size of src/netspread and its option tally.

    python3 tools/tally.py [SRC_DIR]

Reads the source files with `ast` and imports nothing.  Prints:
  * src_lines: `wc -l` over the package's .py files;
  * file_opens: calls of the builtin `open`, one per place that reads or
    writes a file;
  * public_names: the public module-level functions and classes (no
    leading underscore) and the public methods of those classes;
  * defaulted_public_params: parameters with a default value, over every
    public function and public method (no leading underscore on the
    function or on an enclosing class);
  * config_keys: the config keys that experiments._KEYS allows, counting
    the top level's non-section keys, the union of the graph models' keys
    and the training keys, where params, grid and rule count once each;
    a `*_SETTINGS["section"]` entry in _KEYS stands for that section's
    keys in the _SETTINGS table;
  * cli_flags: distinct `--flag` names given to add_argument in cli.py;
  * options: the sum of the last three.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "netspread"


def file_opens(tree: ast.Module) -> int:
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(tree))


def public_names(tree: ast.Module) -> int:
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    count = 0
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            count += 1
            if isinstance(node, ast.ClassDef):
                count += sum(isinstance(child, functions) and not child.name.startswith("_")
                             for child in node.body)
    return count


def defaulted_public_params(tree: ast.Module) -> int:
    def walk(node, public: bool) -> int:
        count = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and not child.name.startswith("_"):
                    args = child.args
                    count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(child, ast.ClassDef):
                count += walk(child, public and not child.name.startswith("_"))
        return count

    return walk(tree, True)


def config_keys(tree: ast.Module) -> int:
    assigned = {node.targets[0].id: node.value for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    # _SETTINGS: section -> {key: (kind, default, low, high)}; older trees have none
    table = assigned.get("_SETTINGS", ast.Dict(keys=[], values=[]))
    settings = {key.value: {k.value for k in value.keys}
                for key, value in zip(table.keys, table.values)}

    def names(elt) -> set:  # a literal key, or *_SETTINGS["section"]
        return settings[elt.value.slice.value] if isinstance(elt, ast.Starred) else {elt.value}

    sections, graph = {}, set()
    for key, value in zip(assigned["_KEYS"].keys, assigned["_KEYS"].values):
        keys = set().union(*(names(elt) for elt in value.elts))
        if isinstance(key, ast.Name):  # a graph model's constant
            graph |= keys
        else:
            sections[key.value] = keys
    return len(sections[""] - {"graph", "training"}) + len(graph) + len(sections["training"])


def cli_flags(tree: ast.Module) -> int:
    flags = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            flags |= {a.value for a in node.args
                      if isinstance(a, ast.Constant) and str(a.value).startswith("--")}
    return len(flags)


def main(src: Path) -> None:
    files = sorted(src.glob("*.py"))
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    lines = sum(len(f.read_bytes().splitlines()) for f in files)
    params = sum(defaulted_public_params(t) for t in trees.values())
    keys = config_keys(trees["experiments.py"])
    flags = cli_flags(trees["cli.py"])
    print(f"src_lines {lines}")
    print(f"file_opens {sum(file_opens(t) for t in trees.values())}")
    print(f"public_names {sum(public_names(t) for t in trees.values())}")
    print(f"defaulted_public_params {params}")
    print(f"config_keys {keys}")
    print(f"cli_flags {flags}")
    print(f"options {params + keys + flags}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", nargs="?", type=Path, default=DEFAULT_SRC,
                        help="the package directory (default: src/netspread of this checkout)")
    src = parser.parse_args().src_dir
    missing = [name for name in ("experiments.py", "cli.py") if not (src / name).is_file()]
    if missing:
        parser.error(f"{src} holds no {' and no '.join(missing)}")
    main(src)
