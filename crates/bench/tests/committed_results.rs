//! The committed `results/*_manifest.json` files are current: each
//! parses as a [`RunManifest`] of the version this build writes. The
//! reader has no compatibility path for older schemas, so a stale
//! manifest fails here instead of lingering unreadable next to its
//! table. Regenerate them with a full `run_all`.

use fading_obs::manifest::MANIFEST_VERSION;
use fading_obs::RunManifest;
use std::path::Path;

#[test]
fn committed_manifests_parse_at_the_current_version() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ directory") {
        let path = entry.expect("readable dir entry").path();
        let is_manifest = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with("_manifest.json"));
        if !is_manifest {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable manifest");
        let manifest: RunManifest = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e:?}", path.display()));
        assert_eq!(
            manifest.version,
            MANIFEST_VERSION,
            "{} is a stale manifest version",
            path.display()
        );
        seen += 1;
    }
    assert!(seen > 0, "no manifests found under {}", dir.display());
}
