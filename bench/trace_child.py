"""Run one tripkin subcommand in this interpreter with spans around its layers.

Usage: python3 trace_child.py SPANS_JSON <tripkin subcommand and flags>

The public functions of each tripkin module are wrapped from here, so the
package itself is unchanged. Each call records a span (metric name, start,
end, parent span) and, at the same boundary, counts the work it did.
Functions that run once per point, such as haversine_distance, are left
unwrapped: their own cost would swamp the span. On exit the spans, counts
and the time taken to import tripkin.cli are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter
from functools import wraps


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(self.counts)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after:
                after(self.counts, args, result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Each step of the generator is one span; its consumer runs outside them."""

        @wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced


def _tree_nodes(node) -> int:
    n, stack = 0, [node]
    while stack:
        node = stack.pop()
        n += 1
        if hasattr(node, "left"):
            stack += [node.left, node.right]
    return n


def _set(key, value_of):
    def hook(counts, *_):
        counts[key] = value_of()

    return hook


def _add(key, amount_of):
    def hook(counts, args, result):
        counts[key] += amount_of(args, result)

    return hook


def _both(*hooks):
    def hook(counts, args, result):
        for h in hooks:
            h(counts, args, result)

    return hook


# (module, function, metric the span's self time adds to, hooks). Several
# functions may feed one metric; cmd_* spans are the command roots.
LAYERS = [
    ("synth", "generate_corpus", "synth.generate_corpus_s",
     dict(after=_add("synth.points_generated", lambda a, r: sum(len(t.points) for t in r.trips)))),
    ("synth", "write_corpus", "synth.write_corpus_s", {}),
    ("ingest", "iter_user_archives", "ingest.read_files_s", "generator"),
    ("ingest", "parse_plt", "ingest.parse_plt_s",
     dict(after=_both(_add("ingest.files_parsed", lambda a, r: 1),
                      _add("ingest.points_parsed", lambda a, r: len(r))))),
    ("ingest", "parse_labels", "ingest.parse_labels_s", {}),
    ("ingest", "assemble_trips", "ingest.assemble_trips_s",
     dict(after=_both(_add("ingest.trips_assembled", lambda a, r: len(r[0])),
                      _add("ingest.points_in_trips", lambda a, r: sum(len(t.points) for t in r[0]))))),
    ("geokinematics", "speed_sequence", "geokinematics.speed_sequence_s", {}),
    ("geokinematics", "acceleration_sequence", "geokinematics.acceleration_sequence_s", {}),
    ("features", "extract_features", "features.extract_features_s",
     dict(after=_add("features.trips_featurized", lambda a, r: 1))),
    ("features", "compute_iqr_bounds", "features.iqr_s", {}),
    ("features", "filter_outlier_trips", "features.iqr_s", {}),
    ("features", "filter_users", "features.filter_users_s", {}),
    ("features", "build_feature_dataset", "features.build_dataset_s",
     dict(before=_set("ingest.peak_rss_mib", _maxrss_mib),
          after=_both(_add("features.rows_kept", lambda a, r: len(r.rows)),
                      _set("features.peak_rss_mib", _maxrss_mib)))),
    ("features", "write_features_csv", "features.write_csv_s", {}),
    ("features", "read_features_csv", "features.read_csv_s", {}),
    ("features", "FeatureDataset.matrix", "features.matrix_s",
     dict(after=_add("features.matrix_calls", lambda a, r: 1))),
    ("learn", "run_classification", "learn.run_classification_s", {}),
    ("learn", "stratified_kfold", "learn.stratified_kfold_s", {}),
    ("learn", "train_tree", "learn.train_tree_s",
     dict(after=_add("learn.tree_nodes", lambda a, r: _tree_nodes(r.root)))),
    ("learn", "predict_batch", "learn.predict_batch_s",
     dict(after=_add("learn.rows_predicted", lambda a, r: len(a[1])))),
    ("learn", "accuracy", "learn.metrics_s", {}),
    ("learn", "macro_f1", "learn.metrics_s", {}),
    ("learn", "roc_auc_ovr_macro", "learn.metrics_s", {}),
    ("learn", "confusion_matrix", "learn.metrics_s", {}),
    ("learn", "weighted_random_baseline", "learn.baselines_s", {}),
    ("learn", "uniform_random_baseline", "learn.baselines_s", {}),
    ("anomaly", "run_anomaly_experiment", "anomaly.run_experiment_s", {}),
    ("anomaly", "inject_anomalies", "anomaly.inject_anomalies_s",
     dict(after=_add("anomaly.trials", lambda a, r: 1))),
    ("anomaly", "standardize", "anomaly.standardize_s", {}),
    ("anomaly", "lof_scores", "anomaly.lof_scores_s",
     dict(after=_add("anomaly.lof_pairs", lambda a, r: len(a[0]) ** 2))),
    ("anomaly", "pr_auc", "anomaly.pr_auc_s", {}),
    ("cli", "cmd_synth", "cli.synth_self_s", {}),
    ("cli", "cmd_extract", "cli.extract_self_s", {}),
    ("cli", "cmd_classify", "cli.classify_self_s", {}),
    ("cli", "cmd_anomaly", "cli.anomaly_self_s", {}),
]


def install(tracer: Tracer) -> None:
    """Replace each listed function, in every tripkin module that binds it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tripkin"]
    for module_name, qualname, metric, hooks in LAYERS:
        owner = sys.modules[f"tripkin.{module_name}"]
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if hooks == "generator":
            traced = tracer.wrap_generator(original, metric)
        else:
            traced = tracer.wrap(original, metric, **hooks)
        setattr(owner, attr, traced)
        if not cls_path:
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, traced)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import tripkin.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tripkin.cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
