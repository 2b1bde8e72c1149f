mod bad;
mod allowed;
mod query;
