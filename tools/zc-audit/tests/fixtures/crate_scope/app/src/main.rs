fn summarize(n: usize) -> usize {
    std::thread::sleep(std::time::Duration::from_millis(1));
    wire::reserve_for(n).len()
}

fn read_frame(len: usize) -> Vec<u8> {
    wire::grow_to(len)
}

fn main() {
    println!("{}", summarize(read_frame(3).len()));
}
