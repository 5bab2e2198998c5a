pub fn decode(buf: &[u8]) -> usize {
    let n = buf.len();
    summarize(n)
}

fn summarize(n: usize) -> usize {
    n.min(16)
}

pub fn reserve_for(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

pub fn grow_to(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}
