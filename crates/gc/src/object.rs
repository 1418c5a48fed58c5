//! Object model: addresses, type tags, and header layout.
//!
//! Every heap object starts with a 16-byte header:
//!
//! ```text
//! offset 0: u32 type tag   (class id, or array bit | element kind)
//! offset 4: u32 flags      (mark, forwarded, co-allocated)
//! offset 8: u32 size       (total object size in bytes, header included)
//! offset 12: u32 array len (element count; 0 for non-arrays)
//! ```
//!
//! While an object is being moved by a nursery collection, the header
//! words at offset 8 are reused to hold the forwarding pointer (the
//! original size is recoverable from the old copy's class/length, which
//! the collector reads before forwarding).

use hpmopt_bytecode::{ClassId, ElemKind, OBJECT_HEADER_BYTES};

use crate::raw::RawHeap;

/// A virtual heap address. `Address(0)` is the null reference ([`NULL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub u64);

/// The null reference.
pub const NULL: Address = Address(0);

impl Address {
    /// Whether this is the null reference.
    #[inline]
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address `bytes` past this one.
    #[inline]
    #[must_use]
    pub fn offset(self, bytes: u64) -> Address {
        Address(self.0 + bytes)
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The type of a heap object: an instance of a class or an array.
///
/// Encoded in the header's first word: bit 31 set means array (low bits
/// hold the [`ElemKind`] discriminant), otherwise the word is a
/// [`ClassId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeTag {
    /// An instance of the given class.
    Class(ClassId),
    /// An array with the given element kind.
    Array(ElemKind),
}

const ARRAY_BIT: u32 = 1 << 31;

impl TypeTag {
    /// Encode into a header word.
    #[inline]
    #[must_use]
    pub fn encode(self) -> u32 {
        match self {
            TypeTag::Class(c) => {
                debug_assert!(c.0 < ARRAY_BIT);
                c.0
            }
            TypeTag::Array(k) => ARRAY_BIT | k as u32,
        }
    }

    /// Decode from a header word.
    #[inline]
    #[must_use]
    pub fn decode(word: u32) -> TypeTag {
        if word & ARRAY_BIT != 0 {
            let kind = match word & 0x7 {
                0 => ElemKind::I8,
                1 => ElemKind::I16,
                2 => ElemKind::I32,
                3 => ElemKind::I64,
                4 => ElemKind::Ref,
                other => panic!("corrupt array tag {other}"),
            };
            TypeTag::Array(kind)
        } else {
            TypeTag::Class(ClassId(word))
        }
    }
}

/// Header flag bits.
pub mod flags {
    /// Object is marked live (major-collection mark phase).
    pub const MARK: u32 = 1;
    /// Header holds a forwarding pointer (minor collection in progress).
    pub const FORWARDED: u32 = 1 << 1;
    /// Object was placed by the co-allocation optimization.
    pub const COALLOC: u32 = 1 << 2;
}

/// Typed accessors over raw object headers.
///
/// All functions take the [`RawHeap`] explicitly; `ObjectModel` itself is
/// stateless. Offsets follow the module-level layout description.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectModel;

impl ObjectModel {
    /// Write a fresh header.
    pub fn init_header(heap: &mut RawHeap, obj: Address, tag: TypeTag, size: u64, array_len: u64) {
        heap.write_u32(obj, tag.encode());
        heap.write_u32(obj.offset(4), 0);
        heap.write_u32(obj.offset(8), size as u32);
        heap.write_u32(obj.offset(12), array_len as u32);
    }

    /// The object's type.
    #[inline]
    #[must_use]
    pub fn type_tag(heap: &RawHeap, obj: Address) -> TypeTag {
        TypeTag::decode(heap.read_u32(obj))
    }

    /// Total object size in bytes (header included).
    #[inline]
    #[must_use]
    pub fn size(heap: &RawHeap, obj: Address) -> u64 {
        u64::from(heap.read_u32(obj.offset(8)))
    }

    /// Array element count (0 for instances).
    #[inline]
    #[must_use]
    pub fn array_len(heap: &RawHeap, obj: Address) -> u64 {
        u64::from(heap.read_u32(obj.offset(12)))
    }

    /// Read the flags word.
    #[inline]
    #[must_use]
    pub fn flags(heap: &RawHeap, obj: Address) -> u32 {
        heap.read_u32(obj.offset(4))
    }

    /// Set flag bits.
    #[inline]
    pub fn set_flags(heap: &mut RawHeap, obj: Address, bits: u32) {
        let f = Self::flags(heap, obj);
        heap.write_u32(obj.offset(4), f | bits);
    }

    /// Clear flag bits.
    #[inline]
    pub fn clear_flags(heap: &mut RawHeap, obj: Address, bits: u32) {
        let f = Self::flags(heap, obj);
        heap.write_u32(obj.offset(4), f & !bits);
    }

    /// Whether the mark bit is set.
    #[inline]
    #[must_use]
    pub fn is_marked(heap: &RawHeap, obj: Address) -> bool {
        Self::flags(heap, obj) & flags::MARK != 0
    }

    /// Whether the object has been forwarded by an in-progress collection.
    #[inline]
    #[must_use]
    pub fn is_forwarded(heap: &RawHeap, obj: Address) -> bool {
        Self::flags(heap, obj) & flags::FORWARDED != 0
    }

    /// Install a forwarding pointer (overwrites the size/len words).
    pub fn forward_to(heap: &mut RawHeap, obj: Address, target: Address) {
        Self::set_flags(heap, obj, flags::FORWARDED);
        heap.write_u64(obj.offset(8), target.0);
    }

    /// Read a previously installed forwarding pointer.
    #[must_use]
    pub fn forwarding(heap: &RawHeap, obj: Address) -> Address {
        debug_assert!(Self::is_forwarded(heap, obj));
        Address(heap.read_u64(obj.offset(8)))
    }

    /// Size in bytes of an array with `len` elements of `kind`, rounded up
    /// to 8-byte alignment.
    #[must_use]
    pub fn array_size(kind: ElemKind, len: u64) -> u64 {
        let payload = kind.width() * len;
        OBJECT_HEADER_BYTES + payload.div_ceil(8) * 8
    }

    /// Address of the first array element.
    #[inline]
    #[must_use]
    pub fn array_data(obj: Address) -> Address {
        obj.offset(OBJECT_HEADER_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_tag_round_trip() {
        for tag in [
            TypeTag::Class(ClassId(0)),
            TypeTag::Class(ClassId(1234)),
            TypeTag::Array(ElemKind::I8),
            TypeTag::Array(ElemKind::I16),
            TypeTag::Array(ElemKind::I32),
            TypeTag::Array(ElemKind::I64),
            TypeTag::Array(ElemKind::Ref),
        ] {
            assert_eq!(TypeTag::decode(tag.encode()), tag);
        }
    }

    #[test]
    fn header_round_trip() {
        let mut h = RawHeap::new(4096);
        let obj = h.base();
        ObjectModel::init_header(&mut h, obj, TypeTag::Array(ElemKind::I16), 48, 12);
        assert_eq!(
            ObjectModel::type_tag(&h, obj),
            TypeTag::Array(ElemKind::I16)
        );
        assert_eq!(ObjectModel::size(&h, obj), 48);
        assert_eq!(ObjectModel::array_len(&h, obj), 12);
        assert!(!ObjectModel::is_marked(&h, obj));
    }

    #[test]
    fn flags_set_and_clear() {
        let mut h = RawHeap::new(64);
        let obj = h.base();
        ObjectModel::init_header(&mut h, obj, TypeTag::Class(ClassId(0)), 16, 0);
        ObjectModel::set_flags(&mut h, obj, flags::MARK | flags::COALLOC);
        assert!(ObjectModel::is_marked(&h, obj));
        ObjectModel::clear_flags(&mut h, obj, flags::MARK);
        assert!(!ObjectModel::is_marked(&h, obj));
        assert_eq!(ObjectModel::flags(&h, obj), flags::COALLOC);
    }

    #[test]
    fn forwarding_round_trip() {
        let mut h = RawHeap::new(128);
        let obj = h.base();
        ObjectModel::init_header(&mut h, obj, TypeTag::Class(ClassId(7)), 24, 0);
        let target = Address(h.base().0 + 64);
        ObjectModel::forward_to(&mut h, obj, target);
        assert!(ObjectModel::is_forwarded(&h, obj));
        assert_eq!(ObjectModel::forwarding(&h, obj), target);
        // The tag survives forwarding (only size/len words are overwritten).
        assert_eq!(ObjectModel::type_tag(&h, obj), TypeTag::Class(ClassId(7)));
    }

    #[test]
    fn array_sizes_align_to_words() {
        assert_eq!(ObjectModel::array_size(ElemKind::I8, 1), 24);
        assert_eq!(ObjectModel::array_size(ElemKind::I8, 8), 24);
        assert_eq!(ObjectModel::array_size(ElemKind::I8, 9), 32);
        assert_eq!(ObjectModel::array_size(ElemKind::I64, 4), 48);
        assert_eq!(ObjectModel::array_size(ElemKind::I16, 0), 16);
    }

    #[test]
    fn null_is_null() {
        assert!(NULL.is_null());
        assert!(!Address(1).is_null());
    }
}
