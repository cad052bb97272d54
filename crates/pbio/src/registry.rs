//! Format registry: the out-of-band meta-data a peer has learned.
//!
//! In the original PBIO deployment a "format server" hands out format
//! descriptions keyed by compact ids; peers consult it once per unseen
//! format. [`FormatRegistry`] is the map each side keeps: writers
//! [`register`](FormatRegistry::register) their formats, readers
//! [`lookup`](FormatRegistry::lookup) by the [`FormatId`] stamped in each
//! wire header. Descriptions travel between peers one at a time, as
//! [`serialize_format`](crate::serialize_format) writes them.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{PbioError, Result};
use crate::meta::{format_id, FormatId};
use crate::types::RecordFormat;

/// Store of format descriptions keyed by wire identity, owned by one
/// receiver or server.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{FormatBuilder, FormatRegistry};
///
/// let mut registry = FormatRegistry::new();
/// let fmt = FormatBuilder::record("Msg").int("load").build_arc()?;
/// let id = registry.register(fmt.clone());
/// assert_eq!(registry.lookup(id)?.name(), "Msg");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct FormatRegistry {
    formats: HashMap<FormatId, Arc<RecordFormat>>,
}

impl FormatRegistry {
    /// Creates an empty registry.
    pub fn new() -> FormatRegistry {
        FormatRegistry::default()
    }

    /// Registers a format, returning its wire identity. Idempotent.
    pub fn register(&mut self, format: Arc<RecordFormat>) -> FormatId {
        let id = format_id(&format);
        self.formats.entry(id).or_insert(format);
        id
    }

    /// Looks a format up by wire identity.
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::UnknownFormat`] if the id has never been
    /// registered.
    pub fn lookup(&self, id: FormatId) -> Result<Arc<RecordFormat>> {
        self.formats.get(&id).cloned().ok_or(PbioError::UnknownFormat(id))
    }

    /// True when a format with this wire identity is registered.
    pub fn contains(&self, id: FormatId) -> bool {
        self.formats.contains_key(&id)
    }

    /// Every registered format (no defined order).
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RecordFormat>> {
        self.formats.values()
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
        let mut r = FormatRegistry::new();
        assert!(r.formats.is_empty());
        let id = r.register(fmt("A"));
        assert_eq!(r.lookup(id).unwrap().name(), "A");
        assert_eq!(r.formats.len(), 1);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = FormatRegistry::new();
        let id1 = r.register(fmt("A"));
        let id2 = r.register(fmt("A"));
        assert_eq!(id1, id2);
        assert_eq!(r.formats.len(), 1);
    }

    #[test]
    fn unknown_lookup_fails() {
        let r = FormatRegistry::new();
        assert!(matches!(r.lookup(FormatId(1)), Err(PbioError::UnknownFormat(_))));
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FormatRegistry>();
    }
}
