//! The memory manager: static fields and arrays with firewall ownership.

use crate::error::JcvmError;
use crate::firewall::{Context, Firewall};

/// A static field slot.
#[derive(Debug, Clone, Copy)]
struct StaticField {
    value: i32,
    owner: Context,
    shared: bool,
}

/// An allocated array.
#[derive(Debug, Clone)]
struct ArrayObj {
    data: Vec<i32>,
    owner: Context,
}

/// Static-field and array storage behind firewall checks.
#[derive(Debug, Clone, Default)]
pub struct MemoryManager {
    statics: Vec<StaticField>,
    arrays: Vec<ArrayObj>,
}

impl MemoryManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        MemoryManager::default()
    }

    /// Reads a static field under firewall check.
    ///
    /// # Errors
    ///
    /// [`JcvmError::NoSuchField`] or [`JcvmError::SecurityViolation`].
    pub(crate) fn get_static(
        &mut self,
        fw: &mut Firewall,
        current: Context,
        index: u8,
    ) -> Result<i32, JcvmError> {
        let f = self
            .statics
            .get(index as usize)
            .ok_or(JcvmError::NoSuchField(index))?;
        fw.check(current, f.owner, f.shared)?;
        Ok(f.value)
    }

    /// Writes a static field under firewall check.
    ///
    /// # Errors
    ///
    /// As for [`get_static`](Self::get_static).
    pub(crate) fn put_static(
        &mut self,
        fw: &mut Firewall,
        current: Context,
        index: u8,
        value: i32,
    ) -> Result<(), JcvmError> {
        let f = self
            .statics
            .get(index as usize)
            .ok_or(JcvmError::NoSuchField(index))?;
        fw.check(current, f.owner, f.shared)?;
        self.statics[index as usize].value = value;
        Ok(())
    }

    /// Allocates an `len`-element zeroed array owned by `owner`; returns
    /// its handle.
    ///
    /// # Errors
    ///
    /// [`JcvmError::ArrayBounds`] if `len` is negative.
    pub(crate) fn new_array(&mut self, owner: Context, len: i32) -> Result<i32, JcvmError> {
        if len < 0 {
            return Err(JcvmError::ArrayBounds);
        }
        let handle = self.arrays.len() as i32;
        self.arrays.push(ArrayObj {
            data: vec![0; len as usize],
            owner,
        });
        Ok(handle)
    }

    /// Reads `array[index]` under firewall check.
    ///
    /// # Errors
    ///
    /// [`JcvmError::ArrayBounds`] or [`JcvmError::SecurityViolation`].
    pub(crate) fn array_load(
        &mut self,
        fw: &mut Firewall,
        current: Context,
        handle: i32,
        index: i32,
    ) -> Result<i32, JcvmError> {
        let a = self
            .arrays
            .get(usize::try_from(handle).map_err(|_| JcvmError::ArrayBounds)?)
            .ok_or(JcvmError::ArrayBounds)?;
        fw.check(current, a.owner, false)?;
        a.data
            .get(usize::try_from(index).map_err(|_| JcvmError::ArrayBounds)?)
            .copied()
            .ok_or(JcvmError::ArrayBounds)
    }

    /// Writes `array[index] = value` under firewall check.
    ///
    /// # Errors
    ///
    /// As for [`array_load`](Self::array_load).
    pub(crate) fn array_store(
        &mut self,
        fw: &mut Firewall,
        current: Context,
        handle: i32,
        index: i32,
        value: i32,
    ) -> Result<(), JcvmError> {
        let h = usize::try_from(handle).map_err(|_| JcvmError::ArrayBounds)?;
        let a = self.arrays.get_mut(h).ok_or(JcvmError::ArrayBounds)?;
        fw.check(current, a.owner, false)?;
        let i = usize::try_from(index).map_err(|_| JcvmError::ArrayBounds)?;
        *a.data.get_mut(i).ok_or(JcvmError::ArrayBounds)? = value;
        Ok(())
    }

    /// Length of an array.
    ///
    /// # Errors
    ///
    /// [`JcvmError::ArrayBounds`] for a bad handle.
    pub(crate) fn array_length(&self, handle: i32) -> Result<i32, JcvmError> {
        let a = self
            .arrays
            .get(usize::try_from(handle).map_err(|_| JcvmError::ArrayBounds)?)
            .ok_or(JcvmError::ArrayBounds)?;
        Ok(a.data.len() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryManager {
        /// Declares a static field owned by `owner`; returns its index.
        pub(crate) fn add_static(&mut self, initial: i32, owner: Context, shared: bool) -> u8 {
            let idx = self.statics.len();
            assert!(idx < 256, "static field table full");
            self.statics.push(StaticField {
                value: initial,
                owner,
                shared,
            });
            idx as u8
        }
    }

    #[test]
    fn statics_respect_ownership() {
        let mut mm = MemoryManager::new();
        let mut fw = Firewall::new();
        let mine = mm.add_static(10, Context(1), false);
        let shared = mm.add_static(20, Context(1), true);
        assert_eq!(mm.get_static(&mut fw, Context(1), mine), Ok(10));
        assert_eq!(
            mm.get_static(&mut fw, Context(2), mine),
            Err(JcvmError::SecurityViolation)
        );
        assert_eq!(mm.get_static(&mut fw, Context(2), shared), Ok(20));
        mm.put_static(&mut fw, Context(1), mine, 11).unwrap();
        assert_eq!(mm.get_static(&mut fw, Context(1), mine), Ok(11));
    }

    #[test]
    fn arrays_bounds_checked() {
        let mut mm = MemoryManager::new();
        let mut fw = Firewall::new();
        let h = mm.new_array(Context(1), 4).unwrap();
        mm.array_store(&mut fw, Context(1), h, 2, 99).unwrap();
        assert_eq!(mm.array_load(&mut fw, Context(1), h, 2), Ok(99));
        assert_eq!(
            mm.array_load(&mut fw, Context(1), h, 4),
            Err(JcvmError::ArrayBounds)
        );
        assert_eq!(
            mm.array_load(&mut fw, Context(1), 9, 0),
            Err(JcvmError::ArrayBounds)
        );
        assert_eq!(mm.array_length(h), Ok(4));
    }

    #[test]
    fn negative_sizes_and_indices_rejected() {
        let mut mm = MemoryManager::new();
        let mut fw = Firewall::new();
        assert_eq!(mm.new_array(Context(0), -1), Err(JcvmError::ArrayBounds));
        let h = mm.new_array(Context(0), 2).unwrap();
        assert_eq!(
            mm.array_load(&mut fw, Context(0), h, -1),
            Err(JcvmError::ArrayBounds)
        );
    }

    #[test]
    fn cross_context_array_access_denied() {
        let mut mm = MemoryManager::new();
        let mut fw = Firewall::new();
        let h = mm.new_array(Context(2), 2).unwrap();
        assert_eq!(
            mm.array_store(&mut fw, Context(1), h, 0, 1),
            Err(JcvmError::SecurityViolation)
        );
        // JCRE may.
        assert!(mm.array_store(&mut fw, Context::JCRE, h, 0, 1).is_ok());
    }
}
