"""Command-line front end: profiles, classification and comparison tables.

Commands
--------
profile    build profile stacks for an image and write them to disk
classify   train a random forest on profile features and report OA / kappa
compare    attribute-profile vs feature-profile table over tree families
tree-dump  plain-text dump of a single tree

Grayscale inputs are PGM files; a ``.json`` input is treated as the sidecar
header of a raw BSQ multiband image, which is PCA-reduced (``--pca``) and
quantized (``--levels``) before tree construction.  An optional ``--config``
file holds ``key = value`` pairs using the long flag names; they are read
by the flags' own parsers and become the command's defaults, so an explicit
flag wins over the file in any spelling.  All randomness flows from ``--seed``.
Profiles are built family by family, each family's trees on every band as
one tree bundle, freed before the next family's is built.

Exit codes: 0 success, 2 input error, 3 data/semantic error, 4 internal
error, 5 the native kernel could not be built or loaded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .attributes import compute_attributes, dump_attributes
from .classifier import evaluate, predict, train_forest
from .errors import BuildError, DataError, FormatError
from .hierarchies import Connectivity, TreeKind, dump_tree
from .imagery import (
    LabelMap,
    RasterImage,
    load_grayscale,
    load_labels,
    load_multiband,
    pca_reduce,
    rescale_to_levels,
)
from .profiles import (
    Attribute,
    Feature,
    FilterSpec,
    ProfileStack,
    ProfileTrees,
    build_ap,
    build_fp,
    build_tree,
    default_area_thresholds,
    default_moment_thresholds,
    profile_dim,
    tree_bundle,
)

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one line, exit 2: no usage."""

    def error(self, message: str):
        raise FormatError(message)


def _names(choices: type):
    """``type`` of a list flag: a non-empty comma list of the enum's values,
    repeats dropped (the first kept)."""
    valid = [c.value for c in choices]

    def parse(text: str) -> list[str]:
        names = [p.strip() for p in text.split(",") if p.strip()]
        for name in names or [text]:  # an empty list is refused too
            if name not in valid:
                raise argparse.ArgumentTypeError(
                    f"unknown value {name!r}, expected one of {'|'.join(valid)}")
        return list(dict.fromkeys(names))
    return parse


def _thresholds(text: str) -> tuple[float, ...]:
    """``type`` of a threshold flag: a non-empty comma list of numbers."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


class _Extend(argparse.Action):
    """A repeatable list flag.  Its first use on the command line replaces
    the default (which a config file may have set), later uses extend it,
    and repeats are dropped."""

    def __call__(self, parser, namespace, values, option_string=None):
        names = getattr(namespace, self.dest)
        names = values if names is self.default else names + values
        setattr(namespace, self.dest, list(dict.fromkeys(names)))


def _read_config(path: str, command: str, parsers: dict) -> dict:
    """The config file's values for ``command``, each converted and checked
    by its option's own ``type`` and ``choices``.  Keys that only another
    command takes are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8", offset=exc.start) from None
    known = {a.dest for p in parsers.values() for a in p._actions
             if a.nargs != 0} - {"config"}
    options = {a.dest: a for a in parsers[command]._actions
               if a.dest in known}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in known:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in options:
            continue
        action = options[key]
        try:
            value = action.type(raw) if action.type else raw
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: {key}: {exc}") from None
        if action.choices and value not in action.choices:
            raise FormatError(f"{path}: {key} must be one of "
                              f"{'|'.join(action.choices)}, got {value!r}")
        values[key] = value
    return values


def _add_common(p: argparse.ArgumentParser, labels: bool) -> None:
    p.add_argument("--config", help="key = value config file; flags win")
    p.add_argument("--image", help="input PGM or BSQ .json header")
    if labels:
        p.add_argument("--train", help="training label PGM (0 = unlabeled)")
        p.add_argument("--test", help="test label PGM (0 = unlabeled)")
    p.add_argument("--tree", action=_Extend, type=_names(ProfileTrees),
                   default=["component"],
                   help="tree family: component|tos|alpha|omega (repeatable)")
    p.add_argument("--attr", action=_Extend, type=_names(Attribute),
                   default=["area", "moment"],
                   help="filter attribute: area|moment (repeatable)")
    p.add_argument("--feature", action=_Extend, type=_names(Feature),
                   default=["stddev", "area"],
                   help="profile feature: stddev|area (repeatable)")
    p.add_argument("--area-thresholds", type=_thresholds,
                   help="comma list of area thresholds")
    p.add_argument("--moment-thresholds", type=_thresholds,
                   help="comma list of moment-of-inertia thresholds")
    p.add_argument("--pca", type=int, default=4,
                   help="PCA components for multiband input (default 4)")
    p.add_argument("--levels", type=int, default=256,
                   help="quantization levels for PCA components (default 256)")
    p.add_argument("--connectivity", default="c4",
                   choices=[c.value for c in Connectivity])
    p.add_argument("--rf-trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its command parsers by name."""
    parser = _Parser(
        prog="treeprof",
        description="Tree-based attribute and feature profiles for raster images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="build and save profile stacks")
    _add_common(p, labels=False)
    p.add_argument("--mode", default="both", choices=["ap", "fp", "both"])

    p = sub.add_parser("classify", help="train and evaluate a random forest")
    _add_common(p, labels=True)
    p.add_argument("--mode", default="fp", choices=["ap", "fp", "both", "raw"])
    p.add_argument("--profile", help="use a saved profile stack instead of building")

    p = sub.add_parser("compare", help="AP vs FP comparison table")
    _add_common(p, labels=True)
    p.set_defaults(tree=["component", "tos", "alpha", "omega"])

    p = sub.add_parser("tree-dump", help="dump one tree as text")
    p.add_argument("--config", help="key = value config file; flags win")
    p.add_argument("--image")
    p.add_argument("--tree", action=_Extend, type=_names(TreeKind),
                   default=["max"], help="tree kind: max|min|tos|alpha|omega")
    p.add_argument("--connectivity", default="c4",
                   choices=[c.value for c in Connectivity])
    p.add_argument("--attributes", action="store_true",
                   help="dump 'id area inertia stddev' instead of structure")
    p.add_argument("--out", help="output file (default stdout)")

    return parser, sub.choices


def _require(args, name: str) -> str:
    value = getattr(args, name, None)
    if not value:
        raise FormatError(f"--{name} is required for this command")
    return value


def _load_bands(args) -> list[RasterImage]:
    """Input image as a list of single-band integer rasters."""
    path = Path(_require(args, "image"))
    if path.suffix == ".json":
        multi = load_multiband(path)
        reduced = pca_reduce(multi, args.pca)
        return [rescale_to_levels(reduced, b, args.levels)
                for b in range(reduced.bands)]
    return [load_grayscale(path)]


def _stacks(args, bands: list[RasterImage], attrs, modes, whole=False):
    """Yields (family, mode, stack) for each ``--tree`` family and each
    mode, family by family; with ``whole``, yields once, (None, None, the
    stacks side by side in one matrix allocated before any tree is built).

    Each family's trees come in one bundle over every band, dropped before
    the next family's is built.  The alpha and omega families share one
    alpha-tree per band, built on first need.
    """
    pixels = bands[0].width * bands[0].height
    ladders = {"area": args.area_thresholds or default_area_thresholds(pixels),
               "moment": args.moment_thresholds or default_moment_thresholds()}
    specs = [FilterSpec(attr, ladders[attr]) for attr in attrs]
    dims = {(kind, mode): len(bands) * profile_dim(
        kind, specs, 1 if mode == "ap" else len(args.feature))
        for kind in args.tree for mode in modes}
    data = np.empty((pixels, sum(dims.values())), np.float32) \
        if whole else None
    conn = Connectivity(args.connectivity)
    alphas, layout = None, []
    for kind in args.tree:
        bundle = None  # the last family's trees go before the next are built
        if kind in ("alpha", "omega") and alphas is None:
            alphas = [build_tree(b, TreeKind.ALPHA_TREE, conn) for b in bands]
        bundle = tree_bundle(bands, kind, conn, alphas)
        for mode in modes:
            out = None if data is None else \
                data[:, len(layout):len(layout) + dims[kind, mode]]
            stack = build_ap(bundle, specs, out) if mode == "ap" else \
                build_fp(bundle, specs, args.feature, out)
            if data is None:
                yield kind, mode, stack
            layout += stack.layout
    if data is not None:
        yield None, None, ProfileStack(bands[0].width, bands[0].height, data,
                                       layout)


def _labels_for(args, bands: list[RasterImage]) -> tuple[LabelMap, LabelMap]:
    dims = (bands[0].width, bands[0].height)
    return tuple(load_labels(_require(args, name), dims)
                 for name in ("train", "test"))


def _fit_eval(matrix: np.ndarray, train: LabelMap, test: LabelMap,
              n_trees: int, seed: int):
    train_idx, train_y = train.samples()
    test_idx, test_y = test.samples()
    if len(train_idx) == 0:
        raise DataError("no labeled training pixels")
    if len(test_idx) == 0:
        raise DataError("no labeled test pixels")
    model = train_forest(matrix[train_idx], train_y, n_trees=n_trees, seed=seed)
    return evaluate(predict(model, matrix, test_idx), test_y)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    bands = _load_bands(args)
    modes = ["ap", "fp"] if args.mode == "both" else [args.mode]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    for kind, mode, stack in _stacks(args, bands, args.attr, modes):
        target = out / f"{stem}_{kind}_{mode}"
        stack.save(target)
        print(f"{kind} {mode}: dim {stack.dim} -> {target}.json/.raw")
    return 0


def _report_dict(confusion, oa, kappa, dim, n_train, n_test, args) -> dict:
    counts = confusion.counts
    totals = counts.sum(axis=1)
    per_class = {str(c + 1): round(float(counts[c, c] / totals[c]), 6)
                 for c in range(len(counts)) if totals[c]}
    return {
        "oa": round(float(oa), 6),
        "kappa": round(float(kappa), 6),
        "per_class_accuracy": per_class,
        "confusion": counts.tolist(),
        "dim": int(dim),
        "n_train": int(n_train),
        "n_test": int(n_test),
        "seed": int(args.seed),
        "rf_trees": int(args.rf_trees),
        "mode": args.mode,
    }


def cmd_classify(args) -> int:
    started = time.perf_counter()
    bands = _load_bands(args)
    train, test = _labels_for(args, bands)
    if args.profile:
        stack = ProfileStack.load(Path(args.profile))
        if (stack.width, stack.height) != (bands[0].width, bands[0].height):
            raise DataError(
                f"profile stack is {stack.width}x{stack.height}, image is "
                f"{bands[0].width}x{bands[0].height}")
        matrix = stack.data
    elif args.mode == "raw":
        matrix = np.stack([b.values.ravel().astype(np.float32) for b in bands],
                          axis=1)
    else:
        modes = ["ap", "fp"] if args.mode == "both" else [args.mode]
        [(_, _, stack)] = _stacks(args, bands, args.attr, modes, whole=True)
        matrix = stack.data
    confusion, oa, kappa = _fit_eval(matrix, train, test,
                                     args.rf_trees, args.seed)
    elapsed = time.perf_counter() - started

    report = _report_dict(confusion, oa, kappa, matrix.shape[1],
                          len(train.samples()[0]), len(test.samples()[0]), args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    lines = [
        f"overall accuracy : {oa * 100:.2f} %",
        f"kappa            : {kappa:.4f}",
        f"feature dim      : {matrix.shape[1]}",
        f"train / test px  : {report['n_train']} / {report['n_test']}",
    ] + [
        f"class {c} accuracy : {v * 100:.2f} %"
        for c, v in sorted(report["per_class_accuracy"].items())
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"runtime          : {elapsed:.2f} s", file=sys.stderr)
    return 0


_COMPARE_ATTR_SETS = (("area",), ("moment",), ("area", "moment"))
_COMPARE_HEADERS = ("area", "moment", "both")


def cmd_compare(args) -> int:
    started = time.perf_counter()
    bands = _load_bands(args)
    train, test = _labels_for(args, bands)

    rows = []
    # the last attribute set, "both", holds every attribute
    for kind, mode, stack in _stacks(args, bands, _COMPARE_ATTR_SETS[-1],
                                     ("ap", "fp")):
        # an original-image column (attribute None) is always followed by a
        # column of its block's attribute
        layout = stack.layout
        attr_of = [c.attribute or layout[i + 1].attribute
                   for i, c in enumerate(layout)]
        cells = {}
        for header, attrs in zip(_COMPARE_HEADERS, _COMPARE_ATTR_SETS):
            cols = [i for i, a in enumerate(attr_of) if a in attrs]
            # ascending, so every column is the matrix itself: no copy
            data = stack.data if len(cols) == stack.dim else \
                stack.data[:, cols]
            _, oa, kappa = _fit_eval(data, train, test,
                                     args.rf_trees, args.seed)
            cells[header] = {"oa": round(float(oa), 6),
                             "kappa": round(float(kappa), 6)}
        rows.append({"method": f"{kind}-{mode}", **cells})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    csv_lines = ["method," + ",".join(
        f"{h}_oa,{h}_kappa" for h in _COMPARE_HEADERS)]
    for row in rows:
        cells = [f"{row[h][k]:.6f}" for h in _COMPARE_HEADERS
                 for k in ("oa", "kappa")]
        csv_lines.append(",".join([row["method"], *cells]))
    (out / "compare.csv").write_text("\n".join(csv_lines) + "\n")

    name_w = max(len(r["method"]) for r in rows)
    txt_lines = [
        f"{'method':<{name_w}} | " + " | ".join(
            f"{h + ' OA':>9} {'kappa':>7}" for h in _COMPARE_HEADERS)
    ]
    for row in rows:
        cells = " | ".join(
            f"{row[h]['oa'] * 100:>9.2f} {row[h]['kappa']:>7.4f}"
            for h in _COMPARE_HEADERS
        )
        txt_lines.append(f"{row['method']:<{name_w}} | {cells}")
    table = "\n".join(txt_lines) + "\n"
    (out / "compare.txt").write_text(table)
    (out / "compare.json").write_text(
        json.dumps({"rows": rows}, sort_keys=True, indent=2)
    )
    print(table, end="")
    print(f"runtime: {time.perf_counter() - started:.2f} s", file=sys.stderr)
    return 0


def cmd_tree_dump(args) -> int:
    image = load_grayscale(_require(args, "image"))
    if len(args.tree) != 1:
        raise DataError("tree-dump takes exactly one tree kind")
    tree = build_tree(image, args.tree[0], Connectivity(args.connectivity))
    if args.attributes:
        text = dump_attributes(tree, compute_attributes(tree, image))
    else:
        text = dump_tree(tree)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "profile": cmd_profile,
    "classify": cmd_classify,
    "compare": cmd_compare,
    "tree-dump": cmd_tree_dump,
}


def main(argv: list[str] | None = None) -> int:
    given = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(given)
        if args.config:
            # the file's values become the command's defaults, so whatever
            # the line gives, in any spelling, wins over them
            commands[args.command].set_defaults(
                **_read_config(args.config, args.command, commands))
            args = parser.parse_args(given)
        if getattr(args, "rf_trees", 1) < 1:
            raise FormatError(
                f"--rf-trees must be at least 1, got {args.rf_trees}")
        return _COMMANDS[args.command](args)
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
