//! Format registry: the out-of-band meta-data store shared between
//! communicating peers.
//!
//! In the original PBIO deployment a "format server" hands out format
//! descriptions keyed by compact ids; peers consult it once per unseen
//! format. [`FormatRegistry`] plays that role here: writers
//! [`register`](FormatRegistry::register) their formats, readers
//! [`lookup`](FormatRegistry::lookup) by the [`FormatId`] stamped in each
//! wire header, and registries can be merged/serialized to model the
//! out-of-band exchange.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot_shim::RwLock;

use crate::error::{PbioError, Result};
use crate::meta::{
    deserialize_format, format_id, put_chunk, serialize_format, take_chunk, take_u32, FormatId,
};
use crate::types::RecordFormat;

// `pbio` keeps zero external dependencies; a tiny shim gives us the same
// ergonomics as `parking_lot::RwLock` over `std::sync::RwLock` (poisoning is
// ignored — the registry holds only plain data).
mod parking_lot_shim {
    #[derive(Default)]
    pub struct RwLock<T>(std::sync::RwLock<T>);

    impl<T> RwLock<T> {
        pub fn new(v: T) -> Self {
            RwLock(std::sync::RwLock::new(v))
        }

        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("RwLock").field(&*self.read()).finish()
        }
    }
}

/// Thread-safe store of format descriptions keyed by wire identity.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{FormatBuilder, FormatRegistry};
///
/// let registry = FormatRegistry::new();
/// let fmt = FormatBuilder::record("Msg").int("load").build_arc()?;
/// let id = registry.register(fmt.clone());
/// assert_eq!(registry.lookup(id)?.name(), "Msg");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FormatRegistry {
    formats: RwLock<HashMap<FormatId, Arc<RecordFormat>>>,
}

impl FormatRegistry {
    /// Creates an empty registry.
    pub fn new() -> FormatRegistry {
        FormatRegistry { formats: RwLock::new(HashMap::new()) }
    }

    /// Registers a format, returning its wire identity. Idempotent.
    pub fn register(&self, format: Arc<RecordFormat>) -> FormatId {
        let id = format_id(&format);
        self.formats.write().entry(id).or_insert(format);
        id
    }

    /// Looks a format up by wire identity.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::UnknownFormat`] if the id has never been
    /// registered or merged into this registry.
    pub fn lookup(&self, id: FormatId) -> Result<Arc<RecordFormat>> {
        self.formats.read().get(&id).cloned().ok_or(PbioError::UnknownFormat(id))
    }

    /// True if the id is known.
    pub fn contains(&self, id: FormatId) -> bool {
        self.formats.read().contains_key(&id)
    }

    /// Number of registered formats.
    pub fn len(&self) -> usize {
        self.formats.read().len()
    }

    /// True if no formats are registered.
    pub fn is_empty(&self) -> bool {
        self.formats.read().is_empty()
    }

    /// Serializes the whole registry for out-of-band transfer to a peer.
    pub fn export(&self) -> Vec<u8> {
        let map = self.formats.read();
        let mut out = Vec::new();
        out.extend_from_slice(&(map.len() as u32).to_le_bytes());
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_by_key(|(id, _)| **id);
        for (_, fmt) in entries {
            put_chunk(&mut out, &serialize_format(fmt));
        }
        out
    }

    /// Merges a serialized registry (from [`FormatRegistry::export`]) into
    /// this one — the receiving half of the out-of-band meta-data exchange.
    ///
    /// # Errors
    ///
    /// Returns decoding errors for malformed input; on error the registry
    /// may contain a prefix of the imported formats.
    pub fn import(&self, bytes: &[u8]) -> Result<usize> {
        let mut pos = 0;
        let n = take_u32(bytes, &mut pos).ok_or(PbioError::UnexpectedEof)? as usize;
        for _ in 0..n {
            let meta = take_chunk(bytes, &mut pos).ok_or(PbioError::UnexpectedEof)?;
            self.register(Arc::new(deserialize_format(meta)?));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FormatBuilder;

    fn fmt(name: &str) -> Arc<RecordFormat> {
        FormatBuilder::record(name).int("a").string("b").build_arc().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let r = FormatRegistry::new();
        assert!(r.is_empty());
        let id = r.register(fmt("A"));
        assert!(r.contains(id));
        assert_eq!(r.lookup(id).unwrap().name(), "A");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn register_is_idempotent() {
        let r = FormatRegistry::new();
        let id1 = r.register(fmt("A"));
        let id2 = r.register(fmt("A"));
        assert_eq!(id1, id2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unknown_lookup_fails() {
        let r = FormatRegistry::new();
        assert!(matches!(r.lookup(FormatId(1)), Err(PbioError::UnknownFormat(_))));
    }

    #[test]
    fn export_import_roundtrip() {
        let a = FormatRegistry::new();
        let id1 = a.register(fmt("A"));
        let id2 = a.register(fmt("B"));
        let b = FormatRegistry::new();
        assert_eq!(b.import(&a.export()).unwrap(), 2);
        assert_eq!(b.lookup(id1).unwrap().name(), "A");
        assert_eq!(b.lookup(id2).unwrap().name(), "B");
    }

    #[test]
    fn import_rejects_truncation() {
        let a = FormatRegistry::new();
        a.register(fmt("A"));
        let bytes = a.export();
        let b = FormatRegistry::new();
        assert!(b.import(&bytes[..bytes.len() - 1]).is_err());
        assert!(b.import(&[]).is_err());
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FormatRegistry>();
    }
}
