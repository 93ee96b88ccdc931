//! Dense per-key tables for the hot grouping and counting loops.
//!
//! Keys are symbols or record ids: dense `u32`s, so a table indexed by
//! key replaces a hash map. Each slot carries the stamp of the group that
//! wrote it; [`StampedSlots::begin`] opens the next group, which resets
//! every slot at once — the same scheme as `ApplyScratch`'s memo.

/// A table of `T` indexed by a dense key and reset in O(1) per group.
#[derive(Debug)]
pub(crate) struct StampedSlots<T> {
    slots: Vec<(u32, T)>,
    /// Slots stamped with this value belong to the current group.
    stamp: u32,
}

impl<T: Copy + Default> StampedSlots<T> {
    /// An empty table. Stamp 0 marks the never-written slots a resize
    /// fills in, so the first group is stamp 1.
    pub(crate) fn new() -> StampedSlots<T> {
        StampedSlots {
            slots: Vec::new(),
            stamp: 1,
        }
    }

    /// Start the next group: every slot reads as fresh again.
    pub(crate) fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The counter came back round: a slot last written 2^32
            // groups ago would carry the new stamp, so clear them all.
            self.slots.fill((0, T::default()));
            self.stamp = 1;
        }
    }

    /// The slot of `key` in the current group, and whether this is the
    /// group's first sight of `key` (the slot then holds `T::default()`).
    #[inline]
    pub(crate) fn slot(&mut self, key: usize) -> (&mut T, bool) {
        if key >= self.slots.len() {
            self.slots
                .resize((key + 1).next_power_of_two(), (0, T::default()));
        }
        let slot = &mut self.slots[key];
        let fresh = slot.0 != self.stamp;
        if fresh {
            *slot = (self.stamp, T::default());
        }
        (&mut slot.1, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_every_slot() {
        let mut slots = StampedSlots::<u32>::new();
        *slots.slot(5).0 = 7;
        assert_eq!(slots.slot(5), (&mut 7, false));
        slots.begin();
        assert_eq!(slots.slot(5), (&mut 0, true));
        // Keys past the end grow the table and read as fresh.
        assert_eq!(slots.slot(1000), (&mut 0, true));
    }

    #[test]
    fn stamp_wraparound_clears_stale_slots() {
        let mut slots = StampedSlots::<u32>::new();
        *slots.slot(3).0 = 9;
        // After 2^32 − 1 more groups the stamp comes back to the one that
        // wrote slot 3: wrapping must clear it, or the stale count would
        // be read as the new group's.
        slots.stamp = u32::MAX;
        slots.begin();
        assert_eq!(slots.stamp, 1);
        assert_eq!(slots.slot(3), (&mut 0, true));
    }
}
