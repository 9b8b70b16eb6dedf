"""Per-layer metrics of one traced pass.

The layers are the package modules below. `cli`, `modelio`, `report`,
`rng` and `errors` are not traced: they read or write a few KB once per
command. Times named ``*_s`` are inclusive (they contain the traced
calls made inside), except ``collision.acceptance_s``, which is the
self time of the scalar acceptance calls.
"""

from __future__ import annotations

import statistics

LAYERS = ("core", "collision", "dynamics", "wildtree", "kac", "downup", "verify")

_CC = "collision.CollisionContext."

# Private functions the metrics need besides the public ones.
PRIVATE = (
    _CC + "__init__",
    _CC + "_product_tensor",
    _CC + "_product_stream",
    "dynamics._advance",
    "dynamics._rk4_step",
)

# Called thousands of times per pass: only their call edges are kept, no spans.
HOT = (
    _CC + "acceptance",
    _CC + "diagonal_acceptance",
    _CC + "product",
    _CC + "_product_tensor",
    "core.check_probvec",
    "core.entropy_functional",
    "core.marginal_factor",
    "core.marginal_on_sites",
    "dynamics._advance",
    "dynamics._rk4_step",
    "wildtree.check_tree",
    "wildtree.eval_tree",
    "wildtree.fragment_factor",
    "wildtree.sample_tree",
    "wildtree.split_fragment",
    "wildtree.tree_leaves",
    "wildtree.PartitionProcess.fragmentation_time",
    "wildtree.PartitionProcess.initial",
    "wildtree.PartitionProcess.run",
    "wildtree.PartitionProcess.step",
)


class Watch:
    """Facts read from the results of traced calls."""

    def __init__(self):
        self.trees = set()
        self.leaves = 0
        self.events = 0
        self.accepted = 0
        self.occupation_tv = []
        self.shell_states = 0
        self.transitions = 0
        self.scan_samples = 0
        self.scan_discarded = 0
        self.slice_states = 0
        self.stream_by_n = {}   # n -> [calls, seconds]

    def hooks(self):
        return {
            "wildtree.sample_tree": self._tree,
            "kac.simulate_particles": self._walk,
            "kac.occupation_tv": lambda args, tv, dur: self.occupation_tv.append(tv),
            "kac.restricted_product_measure": self._shell,
            "kac.transition_table": self._table,
            "kac.particle_mlsi_scan": self._scan,
            "downup.du_measure": self._slice,
            _CC + "_product_stream": self._stream,
        }

    def _tree(self, args, tree, dur):
        self.trees.add(tree)
        self.leaves += (len(tree) + 1) // 2   # a full binary tree has 2L - 1 nodes

    def _walk(self, args, run, dur):
        self.events += run.events
        self.accepted += run.accepted

    def _shell(self, args, measure, dur):
        self.shell_states += measure.codes.size

    def _table(self, args, table, dur):
        self.transitions += table.src.size

    def _scan(self, args, scan, dur):
        self.scan_samples += scan.samples
        self.scan_discarded += scan.discarded

    def _slice(self, args, measure, dur):
        self.slice_states += measure.codes.size

    def _stream(self, args, result, dur):
        entry = self.stream_by_n.setdefault(args[0].n, [0, 0.0])
        entry[0] += 1
        entry[1] += dur


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr, w, criteria):
    """name -> (value, unit) for a tracer `tr` after one pass, its
    `Watch` `w`, and the suite's criterion function names."""
    calls, total = tr.calls, tr.total_s
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    trees = calls("wildtree.sample_tree")
    put("wildtree.trees", trees, "count")
    put("wildtree.sample_tree_s", total("wildtree.sample_tree"), "s")
    put("wildtree.eval_tree_s", total("wildtree.eval_tree"), "s")
    put("wildtree.leaves_per_tree", _ratio(w.leaves, trees), "count")
    put("wildtree.distinct_tree_frac", _ratio(len(w.trees), trees), "ratio")
    put("wildtree.partition_steps", calls("wildtree.PartitionProcess.step"), "count")
    put("wildtree.partition_step_s", total("wildtree.PartitionProcess.step"), "s")
    put("wildtree.fragmentation_runs", calls("wildtree.PartitionProcess.fragmentation_time"), "count")
    put("wildtree.fragmentation_s", total("wildtree.PartitionProcess.fragmentation_time"), "s")
    put("wildtree.mpp_s", total("wildtree.mpp_expectation"), "s")

    put("collision.stream_products", calls(_CC + "_product_stream"), "count")
    put("collision.stream_product_s", total(_CC + "_product_stream"), "s")
    for n in (8, 9, 10):
        count, seconds = w.stream_by_n.get(n, (0, 0.0))
        put(f"collision.stream_product_s.n{n}", _ratio(seconds, count), "s")
    put("collision.tensor_products", calls(_CC + "_product_tensor"), "count")
    put("collision.tensor_product_s", total(_CC + "_product_tensor"), "s")
    put("collision.context_builds", calls(_CC + "__init__"), "count")
    put("collision.context_build_s", total(_CC + "__init__"), "s")
    put("collision.acceptance_calls", calls(_CC + "acceptance"), "count")
    put("collision.acceptance_s", tr.self_s(_CC + "acceptance"), "s")
    put("collision.diagonal_acceptance_calls", calls(_CC + "diagonal_acceptance"), "count")

    put("core.check_probvec_calls", calls("core.check_probvec"), "count")
    put("core.jacobi_calls", calls("core.jacobi_eigvals"), "count")
    put("core.jacobi_s", total("core.jacobi_eigvals"), "s")
    put("core.solve_field_s", total("core.solve_field"), "s")
    put("core.match_block_means_s", total("core.match_block_means"), "s")

    evolve_s = total("dynamics.evolve")
    steps = calls("dynamics._advance", caller="dynamics.evolve")
    put("dynamics.evolve_calls", calls("dynamics.evolve"), "count")
    put("dynamics.evolve_s", evolve_s, "s")
    put("dynamics.rk4_steps", steps, "count")
    put("dynamics.rk4_halvings", calls("dynamics._rk4_step") - steps, "count")
    put("dynamics.product_share",
        _ratio(total(_CC + "product", caller="dynamics._rk4_step"), evolve_s), "ratio")
    put("dynamics.scan_s", total("dynamics.nonlinear_mlsi_scan"), "s")
    put("dynamics.dissipation_s", total("dynamics.dissipation"), "s")

    put("kac.enumerate_s", total("kac.restricted_product_measure"), "s")
    put("kac.shell_states", w.shell_states, "count")
    put("kac.transition_table_s", total("kac.transition_table"), "s")
    put("kac.transitions", w.transitions, "count")
    put("kac.entropy_decay_s", total("kac.particle_entropy_decay"), "s")
    put("kac.scan_s", total("kac.particle_mlsi_scan"), "s")
    put("kac.scan_discard_frac",
        _ratio(w.scan_discarded, w.scan_samples + w.scan_discarded), "ratio")
    put("kac.simulate_s", total("kac.simulate_particles"), "s")
    put("kac.events", w.events, "count")
    put("kac.accept_frac", _ratio(w.accepted, w.events), "ratio")
    put("kac.occupation_tv",
        statistics.fmean(w.occupation_tv) if w.occupation_tv else 0.0, "ratio")

    put("downup.measure_s", total("downup.du_measure"), "s")
    put("downup.slice_states", w.slice_states, "count")
    put("downup.transitions_s", total("downup.du_transitions"), "s")
    put("downup.scan_s", total("downup.du_mlsi_scan"), "s")
    put("downup.factorization_s", total("downup.factorization_check"), "s")
    put("downup.constants_s", total("downup.du_constants"), "s")
    put("downup.cov_check_s", total("downup.cov_bound_check"), "s")

    for name in criteria:
        put(f"verify.{name[:3]}_s", total(f"verify.{name}"), "s")
    return out
