"""Mutation check for the array kernels: apply one named mutant at a time to
a scratch copy of the package and report which tests kill it.

    python3 tools/mutants.py --list
    python3 tools/mutants.py --workdir DIR [NAME ...]

Each mutant replaces one expression or statement inside one function of
`src/cutgap` by another. The site is found with the standard library's
`ast`: the node of the function whose `ast.unparse` equals the mutant's
`old` text, which must occur exactly once there. The mutated function is
written back with `ast.unparse` (its comments are lost, nothing the
interpreter runs changes apart from the mutant) and the rest of the module
keeps its text. For every mutant a fresh directory is made inside DIR (with
`tempfile.mkdtemp`) and receives copies of `src/`, `tests/` and
`pyproject.toml`; the mutant's test files then run there with pytest, under
a time limit, and that directory alone is deleted afterwards. DIR itself is
created if missing and never emptied; it must lie outside the repository and
must not contain it. A mutant is killed when a test fails or errors, or when
the run times out (a mutant can loop forever). Not a `test_*` file: pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/cutgap, without .py
    function: str  # qualified name, Class.method for a method
    old: str  # the code replaced, as `ast.unparse` prints it
    new: str
    tests: tuple  # test files to run, relative to the repository root


FOURIER = ("tests/test_fourier.py",)
SEARCH = ("tests/test_unique_games.py", "tests/test_cli.py")
SAMPLER = ("tests/test_unique_games.py", "tests/test_separator.py", "tests/test_verifier.py")
SEPARATOR = ("tests/test_separator.py",)
LEVELS = ("tests/test_unique_games.py", "tests/test_separator.py", "tests/test_verifier.py")
SIMPLEX = ("tests/test_simplex.py",)
LP_DATA = ("tests/test_metrics.py", "tests/test_simplex.py")
ROUNDING = ("tests/test_metrics.py",)

MUTANTS = (
    # the Kronecker transform and the level-sorted slab products
    Mutant("hadamard_sign", "fourier", "_hadamard",
           "1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)",
           "1.0 - 2.0 * (np.bitwise_count(idx[:, None] | idx) & 1)", FOURIER + LEVELS),
    Mutant("wht_high_factor", "fourier", "walsh_hadamard",
           "_hadamard(k - a)", "_hadamard(k - a)[::-1]", FOURIER + LEVELS),
    Mutant("levels_order_unstable", "unique_games", "EdgeDistribution.levels",
           "np.argsort(np.bitwise_count(np.arange(1 << n)), kind='stable')",
           "np.lexsort((-np.arange(1 << n), np.bitwise_count(np.arange(1 << n))))",
           LEVELS),
    Mutant("levels_last_bound", "unique_games", "EdgeDistribution.levels",
           "range(n + 1)", "range(n)", LEVELS),
    Mutant("levels_reindex_inverse", "unique_games", "EdgeDistribution.levels",
           "np.argsort(order)[self.tables[:, order]]", "order[self.tables[:, order]]", LEVELS),
    Mutant("slab_short", "unique_games", "EdgeDistribution.row_keys",
           "min(lo + ROW_SLAB, len(v_row))", "min(lo + ROW_SLAB - 1, len(v_row))", LEVELS),
    Mutant("slab_gather_row", "unique_games", "EdgeDistribution.row_keys",
           "w_row[read] << self.num_labels", "w_row[read] << self.num_labels - 1", LEVELS),
    Mutant("slab_column_reversed", "unique_games", "EdgeDistribution.row_keys",
           "np.unique(key_pull[slab_keys], return_inverse=True)",
           "np.unique(key_pull[slab_keys][::-1], return_inverse=True)", LEVELS),
    # every pull read by every slab: the same sums, but the plans' work
    # grows with the slabs times the pulls
    Mutant("slab_reads_every_pull", "unique_games", "EdgeDistribution.row_keys",
           "np.unique(key_pull[slab_keys], return_inverse=True)",
           "(np.arange(len(pulls)), key_pull[slab_keys])", LEVELS),
    Mutant("slab_cell_row", "unique_games", "EdgeDistribution.row_keys",
           "(rank[slab_keys] - lo) * len(read)", "rank[slab_keys] * len(read)", LEVELS),
    # the plans kept by their row map: looked up by the distinct-row count
    # alone, or never found again
    Mutant("plan_keyed_by_row_count", "unique_games", "EdgeDistribution.row_keys",
           "row_of.tobytes()", "str(row_of.max() + 1)", LEVELS),
    Mutant("plan_rebuilt_each_call", "unique_games", "EdgeDistribution.row_keys",
           "map_bytes in self.plans", "False", LEVELS),
    Mutant("slab_product_transposed", "unique_games", "EdgeDistribution.level_sums",
           "(own[:, lo:hi] @ pulled[:, lo:hi].T).ravel()[slab.cell]",
           "(pulled[:, lo:hi] @ own[:, lo:hi].T).ravel()[slab.cell]", LEVELS),
    Mutant("slab_level_shift", "unique_games", "EdgeDistribution.level_sums",
           "per_key[slab.keys, s] = (own[:, lo:hi] @ pulled[:, lo:hi].T).ravel()[slab.cell]",
           "per_key[slab.keys, min(s, 1)] = (own[:, lo:hi] @ pulled[:, lo:hi].T).ravel()[slab.cell]",
           LEVELS),
    # opt_search's restarts in lockstep
    Mutant("search_restart_seed", "unique_games", "opt_search",
           "np.random.default_rng([seed, r])", "np.random.default_rng([seed, r + 1])", SEARCH),
    Mutant("search_offsets", "unique_games", "opt_search",
           "np.arange(len(active)) * n", "np.arange(len(active)) * (n - 1)", SEARCH),
    Mutant("search_weights_tiled", "unique_games", "opt_search",
           "np.repeat(weights, len(active))", "np.tile(weights, len(active))", SEARCH),
    Mutant("search_tolerance", "unique_games", "opt_search",
           "gains[offsets + new] > gains[offsets + lam[v]] + 1e-15",
           "gains[offsets + new] > gains[offsets + lam[v]]", SEARCH),
    Mutant("search_one_pass", "unique_games", "opt_search",
           "active = active[moved]", "active = active[:0]", SEARCH),
    Mutant("search_keep_finished", "unique_games", "opt_search",
           "active = active[moved]", "active = active if moved.any() else active[:0]", SEARCH),
    Mutant("search_last_best", "unique_games", "opt_search",
           "val > best_val", "val >= best_val", SEARCH),
    # the flip bits packed by one multiply
    Mutant("pack_no_mask", "unique_games", "_pack_rows",
           "np.bitwise_and(out, (1 << n) - 1, out=out)", "out", SAMPLER),
    Mutant("pack_magic_step", "unique_games", "_pack_rows",
           "8 * (width - 1) - 7 * j", "8 * (width - 1) - 8 * j + 1", SAMPLER),
    Mutant("pack_shift", "unique_games", "_pack_rows",
           "np.right_shift(words * magic, 8 * (width - 1), out=out, casting='unsafe')",
           "np.right_shift(words * magic, 8 * width - 9, out=out, casting='unsafe')", SAMPLER),
    Mutant("pack_row_stride", "unique_games", "_pack_rows",
           "np.ndarray(len(out), dtype=f'<u{width}', buffer=bits, strides=(n,))",
           "np.ndarray(len(out), dtype=f'<u{width}', buffer=bits, strides=(width,))", SAMPLER),
    # the sampler's second query through the (w, p) pairs
    Mutant("sampler_second_by_w", "unique_games", "EdgeDistribution.sample_disagreements",
           "pulls.pair.astype(np.intp) << n", "self.w.astype(np.intp) << n", SAMPLER),
    Mutant("sampler_pulled_unpermuted", "unique_games", "EdgeDistribution.sample_disagreements",
           "self.tables[pulls.table]", "np.arange(1 << n)", SAMPLER),
    Mutant("sampler_pulled_other_reversed", "unique_games",
           "EdgeDistribution.sample_disagreements", "pulls.other << n", "pulls.other[::-1] << n",
           SAMPLER),
    Mutant("flips_at_most", "unique_games", "EdgeDistribution.sample_disagreements",
           "np.less(rows.ravel(), epsilon, out=hits[:rows.size])",
           "np.less_equal(rows.ravel(), epsilon, out=hits[:rows.size])", SAMPLER),
    # the search's random cuts drawn by one shuffle
    Mutant("random_cut_other_half", "separator", "_random_balanced_cuts",
           "points[:, :size // 2]", "points[:, size - size // 2:]", SEPARATOR),
    Mutant("random_cut_rows_reversed", "separator", "_random_balanced_cuts",
           "cuts.reshape(count, -1)", "cuts[::-1].reshape(count, -1)", SEPARATOR),
    Mutant("random_cut_one_extra_row", "separator", "_random_balanced_cuts",
           "rng.permuted(np.tile(np.arange(size), (count * inst.num_blocks, 1)), axis=1)",
           "rng.permuted(np.tile(np.arange(size), (count * inst.num_blocks + 1, 1)), axis=1)[:-1]",
           SEPARATOR),
    # the flip gains: pulled tables kept current by one entry per edge end
    Mutant("gains_pulled_inverse_map", "separator", "_FlipGains.__init__",
           "blocks[self.others[:, None], self.maps]",
           "blocks[self.others[:, None], np.argsort(self.maps, axis=1)]", SEPARATOR),
    Mutant("gains_pulled_at_other", "separator", "_FlipGains.__init__",
           "ends.vertex[:, None] * size + points", "self.others[:, None] * size + points",
           SEPARATOR),
    Mutant("flip_at_own_vertex", "separator", "_FlipGains.flip",
           "(self.others[e], self.maps[e, x])", "(u, self.maps[e, x])", SEPARATOR),
    Mutant("flip_unmapped_point", "separator", "_FlipGains.flip",
           "(self.others[e], self.maps[e, x])", "(self.others[e], x)", SEPARATOR),
    Mutant("flip_no_factor_two", "separator", "_FlipGains.flip",
           "-2 * a * self.weights[e]", "-a * self.weights[e]", SEPARATOR),
    # a fancy-index add keeps one of two ends that share (other, point)
    Mutant("flip_buffered_add", "separator", "_FlipGains.flip",
           "np.add.at(self.pulled, (self.others[e], self.maps[e, x]), -2 * a * self.weights[e])",
           "self.pulled.__setitem__((self.others[e], self.maps[e, x]), "
           "self.pulled[self.others[e], self.maps[e, x]] - 2 * a * self.weights[e])", SEPARATOR),
    Mutant("gain_loop_sign", "separator", "_FlipGains.gain",
           "a * np.dot(self.pulled[u], self.kernel[x]) - 2 * self.loop[u, x]",
           "a * np.dot(self.pulled[u], self.kernel[x]) + 2 * self.loop[u, x]", SEPARATOR),
    # K is symmetric entry for entry (its distance matrix is), so a column
    # is the row's floats in the row's order: an equivalent mutant
    Mutant("gain_kernel_column", "separator", "_FlipGains.gain",
           "self.kernel[x]", "self.kernel[:, x]", SEPARATOR),
    # the simplex's dictionary pivot: the ratio test's ties, the rhs clamp,
    # the kept work arrays and the leaving column
    Mutant("ratio_ties_strict", "simplex", "_bland_iterate",
           "ratios <= np.minimum.reduce(ratios)", "ratios < np.minimum.reduce(ratios)", SIMPLEX),
    Mutant("leaving_ties_by_row", "simplex", "_bland_iterate",
           "best_row = int(ties[t.basis[ties].argmin()])", "best_row = int(ties[0])", SIMPLEX),
    Mutant("entering_ties_by_slot", "simplex", "_bland_iterate",
           "if len(ties) > 1:\n    entering = int(ties[t.ids[ties].argmin()])",
           "if len(ties) > 1:\n    entering = int(ties[0])", SIMPLEX),
    Mutant("rhs_clamp_dropped", "simplex", "_Tableau.pivot",
           "self.rhs[np.abs(self.rhs) < 1e-11] = 0.0", "pass", SIMPLEX),
    Mutant("pivot_factor_kept", "simplex", "_Tableau.pivot",
           "column[row, 0] = 0.0", "pass", SIMPLEX),
    Mutant("buffers_stale_after_pricing", "simplex", "_Tableau._append_priced",
           "self._keep(np.concatenate([self.tab[:, :-1], block, self.tab[:, -1:]], axis=1))",
           "setattr(self, 'tab', np.concatenate([self.tab[:, :-1], block, self.tab[:, -1:]], "
           "axis=1))", SIMPLEX),
    # -(f/p) for 0 - f/p: the leaving column's zeros become -0.0, whose sign
    # no decision reads and the clamped rhs never holds: an equivalent mutant
    Mutant("leaving_column_negated", "simplex", "_Tableau.pivot",
           "np.subtract(0.0, np.multiply(column, inverse, out=column), out=tab[:, slot:slot + 1])",
           "np.negative(np.multiply(column, inverse, out=column), out=tab[:, slot:slot + 1])",
           SIMPLEX),
    # the pricing batch
    Mutant("pricing_at_threshold", "simplex", "_price_batch",
           "rc < -PRICE_TOL", "rc <= -PRICE_TOL", SIMPLEX),
    Mutant("pricing_sort_unstable", "simplex", "_price_batch",
           "np.argsort(rc[new], kind='stable')", "np.argsort(rc[new], kind='quicksort')", SIMPLEX),
    # the LP data's separation matrix, pair-major
    Mutant("lp_data_contraction_unsigned", "metrics", "_distortion_lp_data",
           "np.negative(A[npairs:, :ncuts], out=A[:npairs, :ncuts])",
           "np.positive(A[npairs:, :ncuts], out=A[:npairs, :ncuts])", LP_DATA),
    Mutant("lp_data_zeros_unsigned", "metrics", "_distortion_lp_data",
           "np.negative(A[npairs:, :ncuts], out=A[:npairs, :ncuts])",
           "np.subtract(0.0, A[npairs:, :ncuts], out=A[:npairs, :ncuts])", LP_DATA),
    # round's local search: one mask per trial, read by both sums
    Mutant("local_search_mask_once_per_sweep", "metrics", "local_search_sparsest_cut",
           "np.not_equal(cut[:, None], cut, out=sep)",
           "sep if v else np.not_equal(cut[:, None], cut, out=sep)", ROUNDING),
    Mutant("local_search_weights_own_mask", "metrics", "local_search_sparsest_cut",
           "ratio = _cut_sum(weights, sep, prod) / dem",
           "ratio = _cut_sum(weights, ~sep, prod) / dem", ROUNDING),
    # verify's one label-extended graph
    Mutant("verify_graph_per_labeling", "cli", "cmd_verify",
           "ug.labeling_set_expansion_identity(inst, lam, graph)",
           "ug.labeling_set_expansion_identity(inst, lam)", ("tests/test_cli.py",)),
)


def _function(tree: ast.Module, qualname: str):
    scope = tree
    for part in qualname.split("."):
        scope = next(node for node in ast.iter_child_nodes(scope)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part)
    return scope


def _parsed(code: str) -> ast.AST:
    body = ast.parse(code).body
    if len(body) != 1:
        raise ValueError(f"not one expression or statement: {code!r}")
    return body[0].value if isinstance(body[0], ast.Expr) else body[0]


def mutated_source(source: str, mutant: Mutant) -> str:
    """The module's source with the mutant applied, by way of `ast`."""
    tree = ast.parse(source)
    old = _parsed(mutant.old)
    target = ast.unparse(old)
    kind = ast.stmt if isinstance(old, ast.stmt) else ast.expr  # a call is both; match in kind
    replacement = _parsed(mutant.new)
    hits = []

    class Swap(ast.NodeTransformer):
        def generic_visit(self, node):
            if isinstance(node, kind) and ast.unparse(node) == target:
                hits.append(node)
                return replacement
            return super().generic_visit(node)

    function = _function(tree, mutant.function)
    function.body = [Swap().visit(node) for node in function.body]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: {len(hits)} sites of {target!r} in {mutant.function}")
    # only the mutated function is rewritten; the rest of the module keeps
    # its text, which some tests read
    start = min([function.lineno] + [d.lineno for d in function.decorator_list])
    lines = source.splitlines(keepends=True)
    body = textwrap.indent(ast.unparse(ast.fix_missing_locations(function)),
                           " " * function.col_offset)
    text = "".join(lines[:start - 1]) + body + "\n" + "".join(lines[function.end_lineno:])
    compile(text, mutant.module, "exec")  # a mutant that does not compile is a bad mutant
    return text


def run(mutant: Mutant, workdir: Path, timeout: float) -> tuple[str, list]:
    """('killed' | 'survived' | 'timeout', the failing test ids), from a
    run in `workdir`, a fresh empty directory."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    path = workdir / "src" / "cutgap" / f"{mutant.module}.py"
    path.write_text(mutated_source(path.read_text(), mutant))
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
           *mutant.tests]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", []
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, flags=re.M)
    if done.returncode not in (0, 1) and not failed:
        raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}")
    return ("killed" if failed else "survived"), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--workdir", type=Path, help="directory for one fresh scratch copy per mutant")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {' '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}\t{m.module}.{m.function}\t{m.old}  ->  {m.new}")
        return 0
    if args.workdir is None:
        parser.error("--workdir is required to run mutants")
    workdir = args.workdir.resolve()
    if workdir.is_relative_to(ROOT) or ROOT.is_relative_to(workdir):
        parser.error("--workdir must lie outside the repository and not contain it")
    workdir.mkdir(parents=True, exist_ok=True)
    survivors = 0
    for m in chosen:
        scratch = Path(tempfile.mkdtemp(prefix=f"{m.name}-", dir=workdir))
        try:
            verdict, failed = run(m, scratch, args.timeout)
        finally:
            shutil.rmtree(scratch)
        survivors += verdict == "survived"
        # each failing test once, without its parameters
        tests = dict.fromkeys(re.sub(r"\[.*", "", t).split("::")[-1] for t in failed)
        print(f"{m.name}\t{verdict}\t{len(failed)}\t{' '.join(tests)}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
