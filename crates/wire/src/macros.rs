//! The [`wire_struct!`] macro: field-order [`Encode`](crate::Encode)/
//! [`Decode`](crate::Decode) impls for named structs without a derive
//! dependency.

/// Declares a named struct and implements the wire codec for it, encoding
/// fields in declaration order.
///
/// The input syntax is ordinary Rust struct syntax (attributes, visibility,
/// per-field attributes and visibility all pass through), so downstream
/// `#[derive(...)]`s compose as usual.
///
/// # Examples
///
/// ```
/// ripple_wire::wire_struct! {
///     /// A vertex annotation.
///     #[derive(Debug, Clone, PartialEq)]
///     pub struct Annotation {
///         pub vertex: u32,
///         pub rank: f64,
///         pub neighbors: Vec<u32>,
///     }
/// }
///
/// # fn main() -> Result<(), ripple_wire::WireError> {
/// let a = Annotation { vertex: 7, rank: 0.5, neighbors: vec![1, 2] };
/// let bytes = ripple_wire::to_wire(&a);
/// assert_eq!(ripple_wire::from_wire::<Annotation>(&bytes)?, a);
/// # Ok(())
/// # }
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ftype:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$fmeta])*
                $fvis $field: $ftype,
            )*
        }

        impl $crate::Encode for $name {
            fn encode(
                &self,
                #[allow(unused_variables, reason = "a struct without fields never uses the codec")]
                w: &mut $crate::ByteWriter,
            ) {
                $( $crate::Encode::encode(&self.$field, w); )*
            }
            fn size_hint(&self) -> usize {
                0 $( + $crate::Encode::size_hint(&self.$field) )*
            }
        }

        impl $crate::Decode for $name {
            fn decode(
                #[allow(unused_variables, reason = "a struct without fields never uses the codec")]
                r: &mut $crate::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                ::core::result::Result::Ok(Self {
                    $( $field: $crate::Decode::decode(r)?, )*
                })
            }
            fn skip(
                #[allow(unused_variables, reason = "a struct without fields never uses the codec")]
                r: &mut $crate::ByteReader<'_>,
            ) -> ::core::result::Result<(), $crate::WireError> {
                $( <$ftype as $crate::Decode>::skip(r)?; )*
                ::core::result::Result::Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{from_wire, to_wire};

    wire_struct! {
        /// Module-scope expansion with derives and mixed visibility.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub(crate) struct ModuleScoped {
            pub id: u64,
            name: String,
            pub(crate) flags: Vec<bool>,
        }
    }

    #[test]
    fn roundtrips_at_module_scope() {
        let v = ModuleScoped {
            id: 9,
            name: "x".into(),
            flags: vec![true, false],
        };
        assert_eq!(from_wire::<ModuleScoped>(&to_wire(&v)).unwrap(), v);
    }

    #[test]
    fn works_at_function_scope_too() {
        wire_struct! {
            #[derive(Debug, PartialEq, Clone)]
            struct FnScoped {
                a: i32,
                b: Option<String>,
            }
        }
        let v = FnScoped {
            a: -3,
            b: Some("inner".into()),
        };
        assert_eq!(from_wire::<FnScoped>(&to_wire(&v)).unwrap(), v);
    }

    #[test]
    fn empty_struct_roundtrips() {
        wire_struct! {
            #[derive(Debug, PartialEq, Clone)]
            struct Empty {}
        }
        assert_eq!(from_wire::<Empty>(&to_wire(&Empty {})).unwrap(), Empty {});
    }

    #[test]
    fn field_order_is_the_wire_order() {
        wire_struct! {
            struct Pair { a: u8, b: u8 }
        }
        let bytes = to_wire(&Pair { a: 1, b: 2 });
        assert_eq!(&bytes[..], &[1, 2]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        wire_struct! {
            #[derive(Debug)]
            struct Two { a: u32, b: u32 }
        }
        let bytes = to_wire(&Two { a: 300, b: 400 });
        assert!(from_wire::<Two>(&bytes[..1]).is_err());
    }
}
