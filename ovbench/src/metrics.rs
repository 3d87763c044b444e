//! The names and units of every metric the benchmark prints. They are
//! the names in `BENCHMARK.json`; a unit test holds the two lists equal.

use std::collections::BTreeMap;

/// What a user of the system sees. Reported by every workload with
/// `--trace 0`, always from untraced passes.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_user_byte", "B/B"),
];

/// Single layers, plus the user-visible numbers only one workload has.
/// Reported by every workload with `--trace 1`; a layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    // User-visible, but particular to one or two workloads.
    ("stmts_per_op", "count"),
    ("failed_ops_share", "ratio"),
    ("op_p50_raw_us", "us"),
    ("calibration.slowdown", "ratio"),
    ("op_p99_us", "us"),
    ("scan_ns_per_row", "ns/row"),
    ("write_p50_us", "us"),
    ("fresh_read_p50_us", "us"),
    ("wal_bytes_per_user_byte", "B/B"),
    ("recovery_p50_ms", "ms"),
    ("first_query_p50_ms", "ms"),
    // Span self-times of the traced passes, mean per statement.
    ("parser.parse_ns", "ns"),
    ("session.execute_stmt_ns", "ns"),
    ("fingerprint.fingerprint_ns", "ns"),
    ("optimize.fold_ns", "ns"),
    ("planner.plan_hit_ns", "ns"),
    ("compile.compile_ns", "ns"),
    ("exec.run_expr_ns", "ns"),
    ("exec.scan_ns_per_row", "ns/row"),
    // Counter deltas over the traced passes.
    ("planner.cache_hit_ratio", "ratio"),
    ("planner.replans", "count"),
    ("compile.fallbacks", "count"),
    ("view.pop_cache_hit_ratio", "ratio"),
    ("view.recomputations", "count"),
    ("view.incremental_updates", "count"),
    ("view.stale_serves", "count"),
    ("session.checkpoint_stalls", "count"),
    ("wal.fsyncs_per_1k_writes", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.stepwise_ratio", "ratio"),
    // Probes: isolated public calls after the window.
    ("typecheck.infer_ns", "ns"),
    ("planner.plan_miss_ns", "ns"),
    ("eval.interp_ns_per_row", "ns/row"),
    ("view.attr_stored_ns", "ns"),
    ("view.attr_computed_ns", "ns"),
    ("view.extent_hit_ns_per_oid", "ns/oid"),
    ("view.refresh_delta_us.adults", "us"),
    ("view.refresh_delta_us.earners", "us"),
    ("view.refresh_delta_us.top", "us"),
    ("view.populate_cold_ns_per_row", "ns/row"),
    ("view.imaginary_cold_ns_per_tuple", "ns/tuple"),
    ("view.bind_ms", "ms"),
    ("session.propagate_us", "us"),
    ("session.checkpoint_ms", "ms"),
    ("resolve.resolve_attr_ns", "ns"),
    ("store.stored_attr_ns", "ns"),
    ("store.deep_extent_ns_per_oid", "ns/oid"),
    ("store.insert_ns", "ns"),
    ("store.set_attr_ns", "ns"),
    ("store.delete_ns", "ns"),
    ("store.changes_since_ns", "ns"),
    ("index.lookup_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.bytes_per_record", "B"),
    ("wal.replay_ns_per_record", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("pager.checkpoint_ms", "ms"),
    ("pager.snapshot_bytes", "B"),
    ("pager.read_snapshot_ms", "ms"),
    ("database.open_ms", "ms"),
    ("database.replayed_records", "count"),
    // The size of what was measured.
    ("window_ops", "count"),
    ("dataset_rows", "count"),
];

/// Measured values by name: the value and how many samples stand behind it.
pub type Values = BTreeMap<&'static str, (f64, usize)>;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Pairs `list` with `values`, in list order. A name without a value, or
/// a value that is not a finite number, is an error: the run must not
/// print a partial result.
pub fn collect(
    list: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<Vec<Metric>, String> {
    list.iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(&(value, samples)) if value.is_finite() => Ok(Metric {
                name,
                unit,
                value,
                samples,
            }),
            Some(_) => Err(format!("metric `{name}` is not a finite number")),
            None => Err(format!("metric `{name}` was not measured")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "..."` values inside the array that follows `"key"`.
    fn names_under(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let mut out = Vec::new();
        let mut rest = &json[open..close];
        while let Some(i) = rest.find("\"name\"") {
            rest = &rest[i + 6..];
            let q1 = rest.find('"').expect("value opens");
            let q2 = q1 + 1 + rest[q1 + 1..].find('"').expect("value closes");
            out.push(rest[q1 + 1..q2].to_string());
            rest = &rest[q2..];
        }
        out
    }

    #[test]
    fn printed_names_are_exactly_those_in_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let ours =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names_under(json, "end_to_end"), ours(&END_TO_END));
        assert_eq!(names_under(json, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = crate::workloads::SPECS
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(names_under(json, "workloads"), workloads);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_missing_metric_is_an_error() {
        let mut v = Values::new();
        v.insert("setup_s", (1.0, 1));
        assert!(collect(&END_TO_END, &v).is_err());
        assert!(collect(&END_TO_END[..1], &v).is_ok());
        v.insert("setup_s", (f64::NAN, 1));
        assert!(collect(&END_TO_END[..1], &v).is_err());
    }
}
