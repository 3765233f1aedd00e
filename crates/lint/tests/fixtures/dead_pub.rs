//! Fixture: the library file whose `pub` items the `dead-pub` tests judge.

pub fn uncalled() {}

// sbqa-lint: allow(dead-pub, "only the crate's doc-test calls it")
pub fn waived() {}

pub fn reexported_only() {}

pub fn mentioned_only() {}

pub fn called_elsewhere() {}

pub fn called_by_perf() {}

pub const fn const_uncalled() -> u32 {
    1
}

pub struct Unnamed;

pub(crate) fn crate_visible() {}

pub mod nested {}

pub struct Fields {
    pub field_only_here: u32,
}

fn private_caller() -> Fields {
    uncalled();
    Fields { field_only_here: 1 }
}

#[cfg(test)]
mod tests {
    pub fn in_test_module() {}
}
