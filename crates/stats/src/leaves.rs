//! One exhaustive walk over a configuration's leaves.
//!
//! A config struct lists its fields once, in a [`leaves!`](crate::leaves!)
//! invocation that destructures it without `..`: a field missing from the
//! list does not compile. Everything that must see every leaf — the run
//! cache's fingerprint, the manifest's config JSON, the tests that keep
//! hand-written perturbation lists honest — is a [`Visit`] over that walk
//! rather than a walk of its own.
//!
//! Names are `'static`: a leaf's path is the names from the root down,
//! joined by `.` (`tcp.delayed_ack.timeout`); the root's own name is `""`.
//! Tuple elements are named by position (`faults.loss.2`).

/// Receives a config's leaves in declaration order.
pub trait Visit {
    /// An integer leaf (every unsigned width; times in picoseconds).
    fn int(&mut self, name: &'static str, v: u64);
    /// A float leaf.
    fn float(&mut self, name: &'static str, v: f64);
    /// An enum, by its variant's label. With `fields`, the variant's fields
    /// follow under `name` and a [`leave`](Visit::leave) closes them.
    fn variant(&mut self, name: &'static str, label: &'static str, fields: bool);
    /// An `Option`; when `some`, its payload follows under the same name.
    fn option(&mut self, name: &'static str, some: bool);
    /// Opens a struct or tuple; its fields follow, then a `leave`.
    fn enter(&mut self, _name: &'static str) {}
    /// Closes the innermost `enter` or fielded `variant`.
    fn leave(&mut self) {}
}

/// A value whose leaves can be walked.
pub trait Leaves {
    /// Reports every leaf under `self` to `v`, `self` being named `name`.
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V);
}

/// Why a config was rejected: the path of the offending leaf (as the walk
/// names it under a `ModesConfig`) and a fixed reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the leaf, e.g. `tcp.min_rto`.
    pub path: &'static str,
    /// What is wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Implements [`Leaves`] for a struct from its field list,
/// `leaves!(Grouping: group_size, group_gap)`. The struct is destructured
/// without `..`, so a field left out does not compile.
#[macro_export]
macro_rules! leaves {
    ($ty:ident: $($field:ident),* $(,)?) => {
        impl $crate::Leaves for $ty {
            fn walk<V: $crate::Visit>(&self, name: &'static str, v: &mut V) {
                let $ty { $($field),* } = self;
                v.enter(name);
                $($crate::Leaves::walk($field, stringify!($field), v);)*
                v.leave();
            }
        }
    };
}

/// Walks one enum variant, for a hand-written [`Leaves`] impl that matches
/// without `_`: its label, then its fields (if any), each named by its
/// binding — `Clos { racks, spines } => variant!(v, name, "clos", racks, spines)`.
#[macro_export]
macro_rules! variant {
    ($v:ident, $name:expr, $label:expr) => {
        $crate::Visit::variant($v, $name, $label, false)
    };
    ($v:ident, $name:expr, $label:expr, $($field:ident),+) => {{
        $crate::Visit::variant($v, $name, $label, true);
        $($crate::Leaves::walk(&$field, stringify!($field), $v);)+
        $crate::Visit::leave($v)
    }};
}

macro_rules! int_leaves {
    ($($t:ty),*) => {$(
        impl Leaves for $t {
            fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
                v.int(name, *self as u64);
            }
        }
    )*};
}
int_leaves!(u32, u64, usize);

impl Leaves for f64 {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.float(name, *self);
    }
}

impl<T: Leaves> Leaves for Option<T> {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.option(name, self.is_some());
        if let Some(x) = self {
            x.walk(name, v);
        }
    }
}

macro_rules! tuple_leaves {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Leaves),+> Leaves for ($($t,)+) {
            fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
                v.enter(name);
                $(self.$i.walk(stringify!($i), v);)+
                v.leave();
            }
        }
    };
}
tuple_leaves!(A 0, B 1);
tuple_leaves!(A 0, B 1, C 2);
tuple_leaves!(A 0, B 1, C 2, D 3);

#[cfg(test)]
mod tests {
    use super::*;

    struct Inner {
        a: u32,
        b: Option<(u64, f64)>,
    }
    leaves!(Inner: a, b);

    struct Outer {
        n: usize,
        inner: Inner,
        off: Option<u32>,
    }
    leaves!(Outer: n, inner, off);

    /// Every leaf's dotted path and rendered value.
    #[derive(Default)]
    struct Paths {
        stack: Vec<&'static str>,
        out: Vec<String>,
    }

    impl Paths {
        fn push(&mut self, name: &str, value: String) {
            let mut path: Vec<&str> = self
                .stack
                .iter()
                .copied()
                .filter(|s| !s.is_empty())
                .collect();
            path.push(name);
            self.out.push(format!("{}={value}", path.join(".")));
        }
    }

    impl Visit for Paths {
        fn int(&mut self, name: &'static str, v: u64) {
            self.push(name, v.to_string());
        }
        fn float(&mut self, name: &'static str, v: f64) {
            self.push(name, v.to_string());
        }
        fn variant(&mut self, name: &'static str, label: &'static str, fields: bool) {
            self.push(name, label.to_string());
            if fields {
                self.stack.push(name);
            }
        }
        fn option(&mut self, name: &'static str, some: bool) {
            self.push(name, if some { "some" } else { "none" }.to_string());
        }
        fn enter(&mut self, name: &'static str) {
            self.stack.push(name);
        }
        fn leave(&mut self) {
            self.stack.pop();
        }
    }

    #[test]
    fn walk_names_every_leaf_by_its_path_in_declaration_order() {
        let cfg = Outer {
            n: 3,
            inner: Inner {
                a: 7,
                b: Some((9, 0.5)),
            },
            off: None,
        };
        let mut p = Paths::default();
        cfg.walk("", &mut p);
        assert_eq!(
            p.out,
            [
                "n=3",
                "inner.a=7",
                "inner.b=some",
                "inner.b.0=9",
                "inner.b.1=0.5",
                "off=none"
            ]
        );
        assert!(p.stack.is_empty());
    }

    #[test]
    fn config_error_renders_path_then_reason() {
        let e = ConfigError {
            path: "tcp.mss",
            reason: "must be positive",
        };
        assert_eq!(e.to_string(), "tcp.mss: must be positive");
    }
}
