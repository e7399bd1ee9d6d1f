//! The benchmark prints exactly the workloads and metrics that
//! `BENCHMARK.json` lists, in its units.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of the manifest's array `key`, up to the key that follows it.
fn section<'a>(text: &'a str, key: &str, next: Option<&str>) -> &'a str {
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let end = next.map_or(text.len(), |n| {
        start + text[start..].find(&format!("\"{n}\"")).expect("next key")
    });
    &text[start..end]
}

/// Every string value of `field` in `text`, in order.
fn values<'a>(text: &'a str, field: &str) -> Vec<&'a str> {
    let key = format!("\"{field}\": \"");
    text.match_indices(&key)
        .map(|(at, _)| {
            let rest = &text[at + key.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn workloads_match_the_manifest() {
    let text = manifest();
    let listed = values(section(&text, "workloads", Some("end_to_end")), "name");
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    let text = manifest();
    let part = section(&text, "end_to_end", Some("per_layer"));
    let listed: Vec<(&str, &str)> = values(part, "name")
        .into_iter()
        .zip(values(part, "unit"))
        .collect();
    assert_eq!(listed, END_TO_END);
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    let text = manifest();
    let part = section(&text, "per_layer", None);
    let listed: Vec<(&str, &str)> = values(part, "name")
        .into_iter()
        .zip(values(part, "unit"))
        .collect();
    assert_eq!(listed, PER_LAYER);
}
