//! Installing content-addressed images into xFS.
//!
//! The distribution layer (`now-cas`) moves a manifest's blocks to a
//! node; this module is the last hop — materializing the image as real
//! files in the serverless file system, and verifying an installed tree
//! back against its manifest, chunk hash by chunk hash. Every byte flows
//! through the ordinary xFS write/read paths (coherence, striping,
//! parity), so an installed image survives everything xFS survives.

use now_cas::{BlockHash, BlockStore, ImageManifest};

use crate::fs::{FileId, Xfs, XfsError};

/// Why an image install or verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// A manifest block is absent from the supplied store.
    MissingBlock(BlockHash),
    /// A file read back with the wrong length or chunk hashes.
    Corrupt {
        /// Path of the mismatching file.
        path: String,
    },
    /// The underlying file system refused an operation.
    Fs(XfsError),
}

impl From<XfsError> for ImageError {
    fn from(e: XfsError) -> Self {
        ImageError::Fs(e)
    }
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::MissingBlock(h) => write!(f, "block {h} missing from the store"),
            ImageError::Corrupt { path } => write!(f, "installed file {path} fails verification"),
            ImageError::Fs(e) => write!(f, "file system error: {e:?}"),
        }
    }
}

impl Xfs {
    /// Materializes `manifest` under the file system root: creates every
    /// parent directory, reassembles each file from `store`, and writes
    /// it through the normal xFS path as `client`. Returns the created
    /// file ids in manifest order. Idempotent over directories (an
    /// existing parent is fine); rewriting an existing file overwrites.
    ///
    /// # Errors
    ///
    /// [`ImageError::MissingBlock`] if the store lacks a chunk (a partial
    /// cache must finish fetching first), or the underlying
    /// [`XfsError`] for path and storage failures.
    pub fn install_image(
        &mut self,
        client: u32,
        manifest: &ImageManifest,
        store: &BlockStore,
    ) -> Result<Vec<FileId>, ImageError> {
        let mut ids = Vec::with_capacity(manifest.entries.len());
        for entry in &manifest.entries {
            self.ensure_parents(&entry.path)?;
            let mut data = Vec::with_capacity(entry.size as usize);
            for &hash in &entry.blocks {
                let chunk = store.get(hash).ok_or(ImageError::MissingBlock(hash))?;
                data.extend_from_slice(&chunk);
            }
            data.truncate(entry.size as usize);
            ids.push(self.write_file(client, &entry.path, &data)?);
        }
        Ok(ids)
    }

    /// Reads an installed image back through xFS as `client` and checks
    /// every file against `manifest`: exact length and every chunk
    /// re-hashed under the store's seed. Returns the bytes verified.
    ///
    /// # Errors
    ///
    /// [`ImageError::Corrupt`] naming the first mismatching file, or the
    /// underlying [`XfsError`] if a file cannot be read.
    pub fn verify_image(
        &mut self,
        client: u32,
        manifest: &ImageManifest,
        store: &BlockStore,
    ) -> Result<u64, ImageError> {
        let mut verified = 0u64;
        for entry in &manifest.entries {
            let data = self.read_file(client, &entry.path)?;
            let corrupt = ImageError::Corrupt {
                path: entry.path.clone(),
            };
            if data.len() as u64 != entry.size {
                return Err(corrupt);
            }
            // Fresh reads: every chunk is re-hashed in full, four lanes
            // at a time.
            let chunks: Vec<&[u8]> = data.chunks(manifest.chunk_bytes).collect();
            if BlockHash::of_all(store.seed(), &chunks) != entry.blocks {
                return Err(corrupt);
            }
            verified += entry.size;
        }
        Ok(verified)
    }

    /// Creates every ancestor directory of `path`, ignoring the ones
    /// that already exist.
    fn ensure_parents(&mut self, path: &str) -> Result<(), XfsError> {
        let components: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let mut prefix = String::new();
        for dir in components.iter().take(components.len().saturating_sub(1)) {
            prefix.push('/');
            prefix.push_str(dir);
            match self.mkdir(&prefix) {
                Ok(()) | Err(XfsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::XfsConfig;
    use now_cas::{ImageCatalog, ImageCatalogSpec};

    fn small_catalog() -> ImageCatalog {
        // Small files so the whole image fits a test-sized xFS.
        ImageCatalog::generate(&ImageCatalogSpec {
            images: 2,
            base_files: 3,
            app_files: 2,
            file_bytes: 2048,
            chunk_bytes: 512,
            seed: 42,
        })
    }

    #[test]
    fn install_then_verify_round_trips() {
        let catalog = small_catalog();
        let mut fs = Xfs::new(XfsConfig::small());
        let manifest = &catalog.manifests[0];
        let ids = fs.install_image(0, manifest, &catalog.store).unwrap();
        assert_eq!(ids.len(), 5);
        let verified = fs.verify_image(1, manifest, &catalog.store).unwrap();
        assert_eq!(verified, manifest.logical_bytes());
        // The hierarchy is really there.
        assert_eq!(fs.readdir("/base").unwrap().len(), 3);
    }

    #[test]
    fn shared_parents_install_cleanly() {
        let catalog = small_catalog();
        let mut fs = Xfs::new(XfsConfig::small());
        // Both images share /base; the second install must not trip on
        // the directories the first one created.
        fs.install_image(0, &catalog.manifests[0], &catalog.store)
            .unwrap();
        fs.install_image(0, &catalog.manifests[1], &catalog.store)
            .unwrap();
        fs.verify_image(0, &catalog.manifests[1], &catalog.store)
            .unwrap();
    }

    #[test]
    fn missing_blocks_are_reported() {
        let catalog = small_catalog();
        let manifest = &catalog.manifests[0];
        let empty = BlockStore::new(catalog.store.seed(), catalog.store.chunk_bytes());
        let mut fs = Xfs::new(XfsConfig::small());
        let err = fs.install_image(0, manifest, &empty).unwrap_err();
        assert!(matches!(err, ImageError::MissingBlock(_)));
    }

    #[test]
    fn verification_catches_corruption() {
        let catalog = small_catalog();
        let manifest = &catalog.manifests[0];
        let mut fs = Xfs::new(XfsConfig::small());
        fs.install_image(0, manifest, &catalog.store).unwrap();
        // Overwrite one installed file with different content.
        let victim = &manifest.entries[0];
        fs.write_file(0, &victim.path, &vec![0xAA; victim.size as usize])
            .unwrap();
        let err = fs.verify_image(0, manifest, &catalog.store).unwrap_err();
        assert_eq!(
            err,
            ImageError::Corrupt {
                path: victim.path.clone()
            }
        );
    }
}
