mod bad;
mod allowed;
mod tree;
mod query;
