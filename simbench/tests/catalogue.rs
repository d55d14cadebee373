//! The catalogue's names are well formed, and the committed
//! `BENCHMARK.json` is exactly what the benchmark implements.

use std::collections::HashSet;

use coolpim_simbench::catalogue::{manifest, valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use coolpim_simbench::workload::Bench;
use coolpim_telemetry::tracer::{parse_json, JsonValue};

fn names(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the list {key:?}"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_name_is_well_formed_and_unique() {
    let all: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name:?} is not [A-Za-z0-9_.-]+"
        );
    }
    let unique: HashSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for unit in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b"));
}

#[test]
fn bounds_are_in_range_and_setup_has_the_largest() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{} bound {}",
            m.name,
            m.bound
        );
        assert!(m.bound <= setup.bound, "{} bound exceeds setup_s's", m.name);
    }
}

#[test]
fn workloads_in_code_match_the_catalogue() {
    let code: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    let listed: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    assert_eq!(code, listed);
    assert_eq!(
        Bench::ALL.map(Bench::cells),
        [1, 50, 24],
        "cell counts drifted from the documented workloads"
    );
}

#[test]
fn committed_manifest_parses_and_lists_everything() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        manifest(),
        "BENCHMARK.json is stale: regenerate it with --manifest"
    );
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let JsonValue::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names(&doc, "workloads"),
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
    );
    assert_eq!(
        names(&doc, "end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    assert_eq!(
        names(&doc, "per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
}
