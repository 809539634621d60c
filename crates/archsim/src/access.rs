//! Memory reference records.

use std::fmt;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (read).
    Read,
    /// A store (write).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

/// One memory reference: a byte address and its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// Creates a read access.
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }

    /// `true` for stores.
    pub fn is_write(self) -> bool {
        self.kind == AccessKind::Write
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}", self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!Access::read(0x1000).is_write());
        assert!(Access::write(0x1000).is_write());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Access::read(0x40).to_string(), "R 0x40");
        assert_eq!(Access::write(0x40).to_string(), "W 0x40");
    }
}
