"""Golden outputs of the build commands: the SHA-256 of every file that
`build-ug` and `build-bes` write, and of what each prints, at seed 0.

The cases are four points of the benchmark's k=2 (eta, epsilon) grid and
k=3 at eta = epsilon = 0.3, each at t = 1 and t = 3; each runs
`build-ug` and then `build-bes --ug-file` on its instance, as the
benchmark does. The k=3 case also pins the read side on those files:
`verify` on its UG and basis files, and `pcp --epsilon 0.3` with 20000
and with 10^6 samples on a PROOF holding its best cut, all at seed 0;
each parses the UG file, and the exact acceptance sums and the Monte
Carlo draws follow its edge order and weights. The build digests were
taken before the build commands' loops over edges, labelings and text
lines were replaced by array code, and the read digests while a UG
instance still kept its edges as objects beside its arrays; the k=3
t = 3 digests, the case where `sdp_objective` takes one power per
distinct correlation vector, were taken while it still took one at every
point, and the 10^6-sample `pcp` digest while the edge draws still went
through `Generator.choice`. The gap rows, the summaries (and so the
stdouts) and the `pcp` stdouts were taken again when every cut weight and
exact acceptance became its exact value, correctly rounded: their last
digits moved, and no cut did. The build stdouts and summaries (their
`cut weight MC cross-check` lines) and the `pcp` stdouts (their
`acceptance_mc` lines) were taken again when the test's noise became one
draw per query, each flip pattern mu drawn as one `Generator.choice` over
the 2^N patterns in place of N uniforms; no other byte moved. The gap
rows, summaries and build stdouts of k2_eta0.15_eps0.15 and
k2_eta0.25_eps0.45 (t = 1 and 3) and of k3 at t = 3 were taken again when
the gap ratio became the exact cut weight over the exact objective,
rounded once: only their `ratio` digits moved. The k=3 case also runs in a
subprocess with one BLAS thread, against the same digests.

The k=2 read case pins what the benchmark's certify workload runs besides
`verify` and `pcp`: `distortion` on the farthest-point 10- and 12-point
sub-metrics of the k=2 separator handle metric (eta = epsilon = 0.3) at
t = 1 and t = 3, and `round --seed 0` on the expanded k=2 separator
instance as a GRAPH file with unit demands inside each block, the inputs
built as the benchmark builds them. Those digests were taken while every
simplex pivot still formed `np.outer` over the whole tableau, phase 2
still carried the retired artificial columns, and `local_search_sparsest_cut`
still computed each trial's cut demand twice. So a change to any
written byte fails here. Regenerate them with
`python3 tests/test_golden_outputs.py` only for a change that means to
move an output, and say which bytes moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cutgap
from cutgap import metrics as mt
from cutgap.cli import main
from cutgap.quotient import build_kv_instance, build_ug_sdp_solution
from cutgap.separator import assign_sdp_solution, bes_to_text, build_bes, cut_from_text
from cutgap.verifier import Proof, proof_to_text
from fixtures import graph_to_text

CASES = {
    "k2_eta0.15_eps0.15": (2, 0.15, 0.15, (1, 3)),
    "k2_eta0.25_eps0.45": (2, 0.25, 0.45, (1, 3)),
    "k2_eta0.35_eps0.25": (2, 0.35, 0.25, (1, 3)),
    "k2_eta0.45_eps0.35": (2, 0.45, 0.35, (1, 3)),
    "k3_eta0.3_eps0.3": (3, 0.3, 0.3, (1, 3)),
}
READ_CASES = {"k3_eta0.3_eps0.3"}

GOLDEN = {
    'k2_eta0.15_eps0.15': {
        't1/bes_instance.txt': '527349889210f67c718135a507b05d2af8f113c99dfbc8a08a8cdf7f3e01b86a',
        't1/bes_summary.txt': '6c8e4e8eecf265eae2061dfb219702fe1aecf7dc156530751c843b70bfd77d5b',
        't1/best_cut.txt': '0e4647c405bec769659bbfd45dcf0c424486b01f6e0d1745dbb8a54580a7ce2a',
        't1/gap_row.tsv': '1dd81e9457d262fbe74ae45d3c586f53ee6b0731b3220649ee7cb0219d377237',
        't1/stdout': '6c8e4e8eecf265eae2061dfb219702fe1aecf7dc156530751c843b70bfd77d5b',
        't3/bes_instance.txt': '527349889210f67c718135a507b05d2af8f113c99dfbc8a08a8cdf7f3e01b86a',
        't3/bes_summary.txt': '8d7f0d66e9115cb93467651f452f66d2bd2bccc839b8d80536f903aa09582e1a',
        't3/best_cut.txt': '0e4647c405bec769659bbfd45dcf0c424486b01f6e0d1745dbb8a54580a7ce2a',
        't3/gap_row.tsv': '49d4a1580c1b0e1491fee0a635ba26496727da3162c25ac234b599c721f8cb2d',
        't3/stdout': '8d7f0d66e9115cb93467651f452f66d2bd2bccc839b8d80536f903aa09582e1a',
        'ug/basis.txt': 'df5a8c7da5967b9dd59f9d802b5929ebe7dc587b5459062ba50b6d9292f972a6',
        'ug/quotient_meta.txt': 'e1cad471e71210027795f3957058fc7a8e224ba431e93efe210f80d2838bfb4a',
        'ug/stdout': '98b0ce20a6ade32bc9768e329e4aa8f598dff793d0e3377d40a9a2520bbb5f7d',
        'ug/summary.txt': '98b0ce20a6ade32bc9768e329e4aa8f598dff793d0e3377d40a9a2520bbb5f7d',
        'ug/ug_instance.txt': 'cfa946c2a6218e19374ec9fc01438130bb3b834b458fcc2bc920fd25fef7adfb',
        'ug/ug_report.tsv': '663f91fc3172f783cd6b38f510ae4adaecb41e84b5e86a6e27a87edb7c3c5603',
    },
    'k2_eta0.25_eps0.45': {
        't1/bes_instance.txt': 'afd2ef8537394f4107b9cc209cc51106ef33b9bb480f1d1d14c56e50cfcdc870',
        't1/bes_summary.txt': '9009292f9d957870f85e5af9f9acd6d2824e4edee906bc439e2e30262581c691',
        't1/best_cut.txt': 'd1151537c798572e2769f7812e12db07124fa09d49b53384011761a6081e6566',
        't1/gap_row.tsv': 'a35b7f1dd79d70f31e3829e7bf6453ccf475eac3e658f7636dd23c28b23f61f9',
        't1/stdout': '9009292f9d957870f85e5af9f9acd6d2824e4edee906bc439e2e30262581c691',
        't3/bes_instance.txt': 'afd2ef8537394f4107b9cc209cc51106ef33b9bb480f1d1d14c56e50cfcdc870',
        't3/bes_summary.txt': 'ab8c756727350f9ee7c9a76becf92d1ae85b59ec82867134ebee30ac5bef4bc7',
        't3/best_cut.txt': 'd1151537c798572e2769f7812e12db07124fa09d49b53384011761a6081e6566',
        't3/gap_row.tsv': 'f4593aa903e7f02bc7ad5cb7d6b7ded57f857040527d6ab6e8f98127fd2350f9',
        't3/stdout': 'ab8c756727350f9ee7c9a76becf92d1ae85b59ec82867134ebee30ac5bef4bc7',
        'ug/basis.txt': 'df5a8c7da5967b9dd59f9d802b5929ebe7dc587b5459062ba50b6d9292f972a6',
        'ug/quotient_meta.txt': '248d83f3902f34676d75e6843e6da7fcc21c82b1009b8f65ae4bd7c79b1b2886',
        'ug/stdout': 'c62290f3757b39725752f0186c6a8967b73f690ae1764d011da8d4269baff066',
        'ug/summary.txt': 'c62290f3757b39725752f0186c6a8967b73f690ae1764d011da8d4269baff066',
        'ug/ug_instance.txt': 'fb6c905a139f3e2d73af0836e1667893a6237f3f2507e3b027f68f1c4a6f9c17',
        'ug/ug_report.tsv': 'c9104d5bc57f296fa14c8ee479b84cd76b410676985f2d4adb95c11a8ee341c9',
    },
    'k2_eta0.35_eps0.25': {
        't1/bes_instance.txt': '7f56a0dda9b7e813d83cc21d78ae4c01b337c2bf6328497d9eacb6745087a2d7',
        't1/bes_summary.txt': '1773b4ac9f7f67c2ca8b3d5cbe70132eaaad9c81da80bb58cb5df03c5acacaac',
        't1/best_cut.txt': '0e4647c405bec769659bbfd45dcf0c424486b01f6e0d1745dbb8a54580a7ce2a',
        't1/gap_row.tsv': '57d034e374b7fb239cc774c17c1d70d2fa716e26343f84150dbb40ccfb228a46',
        't1/stdout': '1773b4ac9f7f67c2ca8b3d5cbe70132eaaad9c81da80bb58cb5df03c5acacaac',
        't3/bes_instance.txt': '7f56a0dda9b7e813d83cc21d78ae4c01b337c2bf6328497d9eacb6745087a2d7',
        't3/bes_summary.txt': 'a9afaf728ed523b790e674d5fae6fa5a9b6bb7e72c441a57e226797ed8aae849',
        't3/best_cut.txt': '0e4647c405bec769659bbfd45dcf0c424486b01f6e0d1745dbb8a54580a7ce2a',
        't3/gap_row.tsv': '9600b57154bf5f6ac7de9975f7328ed387dfe99ab1e85cda4041a871c4d20394',
        't3/stdout': 'a9afaf728ed523b790e674d5fae6fa5a9b6bb7e72c441a57e226797ed8aae849',
        'ug/basis.txt': 'df5a8c7da5967b9dd59f9d802b5929ebe7dc587b5459062ba50b6d9292f972a6',
        'ug/quotient_meta.txt': '215eaef544ff227541be91c99c57fcc7fbe3654360a78f865760ea3c659f366f',
        'ug/stdout': 'ca437db0a91d58aa90271e35b4262a3359e3263be4011baa7945a57199e26f89',
        'ug/summary.txt': 'ca437db0a91d58aa90271e35b4262a3359e3263be4011baa7945a57199e26f89',
        'ug/ug_instance.txt': 'acc51e307a591bec40be2d7f1820785e96f9209decb58ddc668653b13d4f1734',
        'ug/ug_report.tsv': 'a1f8481a57787a204d0b858fe9450f59271b550b5fcff9ce25478b8d7c4e6b46',
    },
    'k2_eta0.45_eps0.35': {
        't1/bes_instance.txt': '71cde7775581caec728cd2a5673ea336fb089b040f1a22e5e98fac2661f7dcdf',
        't1/bes_summary.txt': '2330ff349ad507362080317d6a69c62e75cb64be532b78855e66c58167482707',
        't1/best_cut.txt': 'd1151537c798572e2769f7812e12db07124fa09d49b53384011761a6081e6566',
        't1/gap_row.tsv': 'f998c8d91c999d71a7910beb2617add0dad6d6eef51036f690ed6ee1a42ef496',
        't1/stdout': '2330ff349ad507362080317d6a69c62e75cb64be532b78855e66c58167482707',
        't3/bes_instance.txt': '71cde7775581caec728cd2a5673ea336fb089b040f1a22e5e98fac2661f7dcdf',
        't3/bes_summary.txt': '6c823c7cf0e713d21e053dd73c137e65c107b1f54c4efd8138114f76f567b39e',
        't3/best_cut.txt': 'd1151537c798572e2769f7812e12db07124fa09d49b53384011761a6081e6566',
        't3/gap_row.tsv': '7d75ba4e8b3b03f3023ecd74bef53572c24a7c0c30c2ca7bdc41a70de0e89f0d',
        't3/stdout': '6c823c7cf0e713d21e053dd73c137e65c107b1f54c4efd8138114f76f567b39e',
        'ug/basis.txt': 'df5a8c7da5967b9dd59f9d802b5929ebe7dc587b5459062ba50b6d9292f972a6',
        'ug/quotient_meta.txt': '771687573f5c037e370ac9a3c5a898b5221ddd90fb1e875ade20e828da32095a',
        'ug/stdout': 'ff2a1aba9a87d06e58f68e5115bf49de59a3446a815941f95019f97a893fac64',
        'ug/summary.txt': 'ff2a1aba9a87d06e58f68e5115bf49de59a3446a815941f95019f97a893fac64',
        'ug/ug_instance.txt': 'f321411e37126f790a90bde63ea6a94ac37335507508dca0b1c3bb419858be51',
        'ug/ug_report.tsv': '0985763f15102f884439a1b6c02842d238045ba7bbe40666bf97d98ab3954ee5',
    },
    'k3_eta0.3_eps0.3': {
        'pcp/proof.txt': '218cdf0ddc297bdbe54b932b8d5d37efd66f2e51c92fae3fdf468fe60fd13fd2',
        'pcp/stdout': '6c7d215a0741f495b337d00fa8e702fd44b22c106e5f1e1acdab0337542dd0b0',
        'pcp/stdout_1e6': '9a297f06f43a59dfea032b79326136bfdd1e620255cb6f4eaee2c80d45473bf1',
        't1/bes_instance.txt': '8443caa4f535205ce3b0e204ad72de351c6a08f36fa038d0063696e4c040a72c',
        't1/bes_summary.txt': '0e9fb0f8e3ece59ea4d1b113143f607a0606590ea0c24dce7b1b56d49bea323d',
        't1/best_cut.txt': 'a3054ac32da280449be49e8f21bb1ae43fe369e563c14826f6cdec55fc8c49a2',
        't1/gap_row.tsv': '224a8101d70fbc89d6e17af939ff6f0e329e3e598efcf84871f0023fc4e0d96a',
        't1/stdout': '0e9fb0f8e3ece59ea4d1b113143f607a0606590ea0c24dce7b1b56d49bea323d',
        't3/bes_instance.txt': '8443caa4f535205ce3b0e204ad72de351c6a08f36fa038d0063696e4c040a72c',
        't3/bes_summary.txt': '3e079dc0ba5c6ff429b598aca2ed58f221c47609248e4238a8f68078d64d391c',
        't3/best_cut.txt': 'a3054ac32da280449be49e8f21bb1ae43fe369e563c14826f6cdec55fc8c49a2',
        't3/gap_row.tsv': 'df74d8d7e4cd638bc73f046a2856f93f4770d9bf550c30b4fd53d0d80c86de2c',
        't3/stdout': '3e079dc0ba5c6ff429b598aca2ed58f221c47609248e4238a8f68078d64d391c',
        'ug/basis.txt': 'c6397897f84b0e51e7e0deb2f207a9487d46dfd764af9dfb5960206f217c743d',
        'ug/quotient_meta.txt': 'e6838536dc36d747239ba0351251dd52d5bbfaa858c214e7482ed044bd4d7ee7',
        'ug/stdout': '01d295b71e3e7f0a7cbfab6cc6d86a39d9311633b0612d13c61b28774e59339d',
        'ug/summary.txt': '01d295b71e3e7f0a7cbfab6cc6d86a39d9311633b0612d13c61b28774e59339d',
        'ug/ug_instance.txt': '6c4d82813cd0671c1e91a8f56aaea5b997a8d807ab51948854c179693f3384fa',
        'ug/ug_report.tsv': '3edf529ca4ea5167ba8a8e60827daef3176c9c692f3b91bdd961aa8a4ae9c489',
        'verify/stdout': 'e365f5a05b80d3cb5403ea75850b08b862a3654779264abe8a27982f20e7108c',
    },
}


K2_READ_GOLDEN = {
    'distortion/t1_n10': '4451bd5f7e8968460bc2b296bd04b7b2c73eea6843e72cfe4c52e2eda38493c4',
    'distortion/t1_n12': '2bc61683d0589e25cbd12f123fbe3890b2fb033535fe0b4a84d4469ee85f3d86',
    'distortion/t3_n10': '4451bd5f7e8968460bc2b296bd04b7b2c73eea6843e72cfe4c52e2eda38493c4',
    'distortion/t3_n12': '2bc61683d0589e25cbd12f123fbe3890b2fb033535fe0b4a84d4469ee85f3d86',
    'round/graph.txt': '2e9245cf850f473777777b1ee66c1b8a4938e0d733f7959ac6dbffcbe10b4601',
    'round/stdout': '3a96c24240b1b6f102b7f4e8f3ea103b7257ece1ef444f6f5e9953f59ee8923c',
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def run_case(root: str, k: int, eta: float, epsilon: float, ts,
             read: bool = False) -> dict:
    """Digest of every file written under `root` and of each command's
    stdout, keyed by relative path (`<dir>/stdout` for the stdout); with
    `read`, also of `verify` and `pcp` run on the written files."""
    ug_dir = os.path.join(root, "ug")
    argvs = {"ug": ["build-ug", "--k", str(k), "--eta", str(eta), "--seed", "0",
                    "--out", ug_dir]}
    for t in ts:
        argvs[f"t{t}"] = [
            "build-bes", "--k", str(k), "--eta", str(eta), "--epsilon", str(epsilon),
            "--t", str(t), "--seed", "0",
            "--ug-file", os.path.join(ug_dir, "ug_instance.txt"),
            "--out", os.path.join(root, f"t{t}")]
    digests = {f"{name}/stdout": _sha(_run(argv)) for name, argv in argvs.items()}
    if read:
        ug_file = os.path.join(ug_dir, "ug_instance.txt")
        digests["verify/stdout"] = _sha(_run(
            ["verify", "--ug-file", ug_file,
             "--basis-file", os.path.join(ug_dir, "basis.txt"), "--seed", "0"]))
        with open(os.path.join(root, f"t{ts[0]}", "best_cut.txt")) as fh:
            cut = cut_from_text(fh.read())
        n = 1 << k
        proof_file = os.path.join(root, "pcp", "proof.txt")
        os.makedirs(os.path.dirname(proof_file))
        with open(proof_file, "w") as fh:
            fh.write(proof_to_text(Proof(n, cut.reshape(-1, 1 << n))))
        # 20000 samples fit in one batch of draws; 10^6 take 15 full
        # batches and a partial one
        for samples, name in ((20000, "pcp/stdout"), (1000000, "pcp/stdout_1e6")):
            digests[name] = _sha(_run(
                ["pcp", "--ug-file", ug_file, "--proof-file", proof_file,
                 "--epsilon", str(epsilon), "--samples", str(samples), "--seed", "0"]))
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path) as fh:
                digests[os.path.relpath(path, root).replace(os.sep, "/")] = _sha(fh.read())
    return dict(sorted(digests.items()))


def write_k2_read_inputs(root: str, eta: float = 0.3, epsilon: float = 0.3) -> None:
    """`metric_t{t}_n{n}.txt` for t in (1, 3) and n in (10, 12), and
    `graph.txt`, under `root`."""
    u, quot, _ = build_kv_instance(2, eta)
    inst = build_bes(u, epsilon)
    sol = build_ug_sdp_solution(quot)
    m = inst.num_blocks
    for t in (1, 3):
        assign = assign_sdp_solution(inst, sol, l_in=8, t=t)
        g = np.block([[assign.base_gram_block(v, w) ** t for w in range(m)]
                      for v in range(m)])
        metric = mt.metric_from_gram(g)
        for n in (10, 12):
            pts = mt.farthest_point_sample(metric, n, seed_point=0)
            with open(os.path.join(root, f"metric_t{t}_n{n}.txt"), "w") as fh:
                fh.write(mt.metric_to_text(mt.FiniteMetric(metric.d[np.ix_(pts, pts)])))
    with open(os.path.join(root, "graph.txt"), "w") as fh:
        fh.write(graph_to_text(*k2_graph(inst)))


def k2_graph(inst):
    """(weights, demands) of an expanded k=2 separator instance: the
    weights summed from its expanded export, self-loops dropped, and unit
    demands between the vertices of each block."""
    size, n = inst.block_size, inst.num_vertices
    weights = np.zeros((n, n))
    for line in bes_to_text(inst, expanded=True).splitlines()[1:]:
        v, x, w, y, wt = line.split()
        a, b = int(v) * size + int(x), int(w) * size + int(y)
        if a != b:
            weights[a, b] += float(wt)
    weights = np.triu(weights) + np.triu(weights, 1).T
    blocks = np.arange(n) // size
    demands = (blocks[:, None] == blocks[None, :]).astype(np.float64)
    np.fill_diagonal(demands, 0.0)
    return weights, demands


def run_k2_read(root: str) -> dict:
    """Digest of each k=2 read command's stdout and of the graph file."""
    write_k2_read_inputs(root)
    digests = {f"distortion/t{t}_n{n}": _sha(_run(
        ["distortion", "--metric-file", os.path.join(root, f"metric_t{t}_n{n}.txt")]))
        for t in (1, 3) for n in (10, 12)}
    graph = os.path.join(root, "graph.txt")
    digests["round/stdout"] = _sha(_run(["round", "--graph-file", graph, "--seed", "0"]))
    with open(graph) as fh:
        digests["round/graph.txt"] = _sha(fh.read())
    return dict(sorted(digests.items()))


def test_k2_read_outputs_match_golden_digests(tmp_path):
    assert run_k2_read(str(tmp_path)) == K2_READ_GOLDEN


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_outputs_match_golden_digests(tmp_path, case):
    assert run_case(str(tmp_path), *CASES[case], read=case in READ_CASES) == GOLDEN[case]


def test_k3_build_outputs_match_golden_digests_under_one_blas_thread(tmp_path):
    # the benchmark runs with one BLAS thread; OPENBLAS_NUM_THREADS is read
    # when numpy loads, so the case runs in a fresh interpreter
    case = "k3_eta0.3_eps0.3"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cutgap.__file__)))
    script = ("import json, sys\n"
              "from test_golden_outputs import CASES, run_case\n"
              f"print(json.dumps(run_case(sys.argv[1], *CASES[{case!r}], read=True)))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([here, src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN[case]


if __name__ == "__main__":
    import tempfile

    out = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            out[case] = run_case(d, *CASES[case], read=case in READ_CASES)
    sys.stdout.write("GOLDEN = {\n")
    for case, digests in out.items():
        sys.stdout.write(f"    {case!r}: {{\n")
        for name, h in digests.items():
            sys.stdout.write(f"        {name!r}: {h!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
    with tempfile.TemporaryDirectory() as d:
        digests = run_k2_read(d)
    sys.stdout.write("\n\nK2_READ_GOLDEN = {\n")
    for name, h in digests.items():
        sys.stdout.write(f"    {name!r}: {h!r},\n")
    sys.stdout.write("}\n")
