//! Golden-artifact caching for tests, examples and benches.
//!
//! The FitAct workflow is two-phase: a network is trained once, then
//! calibrated / protected / campaigned many times. Before the artifact
//! format existed, every test and example re-paid the training cost; with
//! it, the first caller trains and saves, every later caller loads.
//!
//! [`load_or_build`] is safe under concurrent test binaries: builders
//! publish through [`ModelArtifact::save`], an atomic rename, so two racing
//! processes at worst both train once — a reader can never observe a
//! half-written artifact. Determinism makes the race harmless: both
//! processes produce bit-identical artifacts.

use crate::{IoError, ModelArtifact};
use std::path::{Path, PathBuf};

/// The canonical golden-artifact directory for a crate: `target/golden`
/// under the given manifest directory's workspace target.
pub fn golden_dir(manifest_dir: &str) -> PathBuf {
    Path::new(manifest_dir).join("target").join("golden")
}

/// Loads the artifact cached as `<dir>/<name>.fitact`, or builds, publishes
/// and returns it.
///
/// A cached artifact that fails to decode (format bump, truncated write by a
/// killed process) **or** fails to instantiate (the topology-building code
/// changed since the cache was written) is treated as absent and rebuilt.
///
/// Cache keys are names: include everything that determines the built
/// artifact — architecture, seeds, epochs, dataset spec — in `name`, or a
/// config change will silently keep serving the stale model (the
/// instantiate check only catches *structural* drift, not retuned
/// hyperparameters).
///
/// # Example
///
/// ```
/// use fitact_io::{golden, ModelArtifact};
/// use fitact_nn::layers::{Linear, Sequential};
/// use fitact_nn::Network;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), fitact_io::IoError> {
/// let dir = std::env::temp_dir().join("fitact_golden_doctest");
/// let build = || {
///     let mut rng = StdRng::seed_from_u64(0);
///     let net = Network::new(
///         "tiny",
///         Sequential::new().with(Box::new(Linear::new(2, 2, &mut rng))),
///     );
///     ModelArtifact::capture(&net)
/// };
/// let first = golden::load_or_build(&dir, "tiny-doc", build)?;
/// // The second call loads the published cache; its builder never runs.
/// let second = golden::load_or_build(&dir, "tiny-doc", || unreachable!("cache hit"))?;
/// assert_eq!(first, second);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates builder errors and filesystem failures from publishing.
pub fn load_or_build<F>(dir: &Path, name: &str, build: F) -> Result<ModelArtifact, IoError>
where
    F: FnOnce() -> Result<ModelArtifact, IoError>,
{
    let path = dir.join(format!("{name}.{}", crate::FILE_EXTENSION));
    if let Ok(artifact) = ModelArtifact::load(&path) {
        if artifact.instantiate().is_ok() {
            return Ok(artifact);
        }
    }
    let artifact = build()?;
    std::fs::create_dir_all(dir)?;
    // Concurrent builders race benignly: the last rename wins, and every
    // rename installs a complete, bit-identical file.
    artifact.save(&path)?;
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::layers::{Linear, Sequential};
    use fitact_nn::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(
            "tiny",
            Sequential::new().with(Box::new(Linear::new(2, 2, &mut rng))),
        );
        ModelArtifact::capture(&net).unwrap()
    }

    #[test]
    fn builds_once_then_loads() {
        let dir = std::env::temp_dir().join(format!("fitact_golden_{}", std::process::id()));
        let mut builds = 0;
        let first = load_or_build(&dir, "tiny", || {
            builds += 1;
            Ok(tiny())
        })
        .unwrap();
        let second = load_or_build(&dir, "tiny", || {
            builds += 1;
            Ok(tiny())
        })
        .unwrap();
        assert_eq!(builds, 1, "second call must load the cache");
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_cache_is_rebuilt() {
        let dir = std::env::temp_dir().join(format!("fitact_golden_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiny.fitact"), b"not an artifact").unwrap();
        let artifact = load_or_build(&dir, "tiny", || Ok(tiny())).unwrap();
        assert_eq!(artifact.name, "tiny");
        // The cache now holds the repaired artifact.
        assert_eq!(
            ModelArtifact::load(dir.join("tiny.fitact")).unwrap(),
            artifact
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_that_no_longer_instantiates_is_rebuilt() {
        let dir = std::env::temp_dir().join(format!("fitact_golden_drift_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate topology drift: the cached artifact decodes but its spec
        // no longer matches its parameter list.
        let mut stale = tiny();
        if let fitact_nn::LayerSpec::Linear { out_features, .. } = &mut stale.layers[0] {
            *out_features += 1;
        } else {
            panic!("expected a linear spec");
        }
        stale.save(dir.join("tiny.fitact")).unwrap();
        let repaired = load_or_build(&dir, "tiny", || Ok(tiny())).unwrap();
        assert!(repaired.instantiate().is_ok());
        assert_eq!(
            ModelArtifact::load(dir.join("tiny.fitact")).unwrap(),
            repaired,
            "the repaired artifact must replace the stale cache"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn golden_dir_is_under_target() {
        let dir = golden_dir("/some/crate");
        assert!(dir.ends_with("target/golden"));
    }
}
