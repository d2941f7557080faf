fn main() {}
