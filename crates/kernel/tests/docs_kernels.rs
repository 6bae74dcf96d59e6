//! docs/KERNELS.md is the catalogue of every kernel-variant knob. This test
//! scans `src/kconfig.rs` for the public fields of `KernelConfig` and fails
//! if any knob (or named variant) is missing from the page, so the catalogue
//! cannot silently rot when a new knob lands.

use sp_kernel::KernelVariant;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = manifest.join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Extract the field names of `KernelConfig` from the source: lines of the
/// form `pub <name>: <ty>,` inside the struct body. Plain string scanning —
/// the struct is the only item in the file with `pub` fields.
fn kernel_config_fields(src: &str) -> Vec<String> {
    let body_start = src
        .find("pub struct KernelConfig")
        .expect("kconfig.rs declares KernelConfig");
    let body = &src[body_start..];
    let close = body.find("\n}").expect("struct body ends");
    body[..close]
        .lines()
        .filter_map(|line| {
            let line = line.trim();
            let rest = line.strip_prefix("pub ")?;
            // Skip `pub struct KernelConfig {` itself and any methods.
            let colon = rest.find(':')?;
            let name = &rest[..colon];
            name.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                .then(|| name.to_string())
        })
        .collect()
}

#[test]
fn kernels_md_covers_every_public_knob() {
    let src = repo_file("src/kconfig.rs");
    let fields = kernel_config_fields(&src);
    assert!(
        fields.len() >= 16,
        "expected the full knob set, parsed only {fields:?}"
    );

    let docs = repo_file("../../docs/KERNELS.md");
    let mut missing: Vec<&str> = Vec::new();
    for f in &fields {
        // Knobs must be referenced by name, in code font, so readers can
        // grep for them: `` `knob_name` ``.
        if !docs.contains(&format!("`{f}`")) {
            missing.push(f);
        }
    }
    assert!(
        missing.is_empty(),
        "docs/KERNELS.md is missing knob(s) {missing:?} — every public \
         KernelConfig field must be catalogued there"
    );
}

#[test]
fn kernels_md_names_every_variant() {
    let docs = repo_file("../../docs/KERNELS.md");
    for v in KernelVariant::ALL {
        assert!(
            docs.contains(v.name()),
            "docs/KERNELS.md does not mention kernel variant {}",
            v.name()
        );
    }
}

#[test]
fn kernels_md_documents_every_shield_file() {
    let docs = repo_file("../../docs/KERNELS.md");
    for file in ["procs", "irqs", "ltmrs", "kthreads"] {
        assert!(
            docs.contains(&format!("/proc/shield/{file}")),
            "docs/KERNELS.md does not mention /proc/shield/{file}"
        );
    }
}
