//! The simulator's noise generator, `ChaCha8Rng`, against a one-block-at-a-
//! time scalar ChaCha written out here from RFC 8439. The generator computes
//! four blocks per refill; every campaign result depends on its keystream
//! staying word for word the same.

use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha20Rng, ChaCha8Rng};

/// Scalar reference keystream: block `counter` of `stream` under `key`,
/// state words 12/13 the 64-bit block counter and 14/15 the stream id.
struct Reference {
    key: [u32; 8],
    stream: u64,
    double_rounds: usize,
    counter: u64,
    block: Vec<u32>,
}

impl Reference {
    fn new(seed: [u8; 32], double_rounds: usize) -> Self {
        let key =
            std::array::from_fn(|i| u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap()));
        Reference {
            key,
            stream: 0,
            double_rounds,
            counter: 0,
            block: Vec::new(),
        }
    }

    fn block(&self, counter: u64) -> [u32; 16] {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        input[4..12].copy_from_slice(&self.key);
        input[12] = counter as u32;
        input[13] = (counter >> 32) as u32;
        input[14] = self.stream as u32;
        input[15] = (self.stream >> 32) as u32;
        let mut x = input;
        let qr = |x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize| {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        };
        for _ in 0..self.double_rounds {
            qr(&mut x, 0, 4, 8, 12);
            qr(&mut x, 1, 5, 9, 13);
            qr(&mut x, 2, 6, 10, 14);
            qr(&mut x, 3, 7, 11, 15);
            qr(&mut x, 0, 5, 10, 15);
            qr(&mut x, 1, 6, 11, 12);
            qr(&mut x, 2, 7, 8, 13);
            qr(&mut x, 3, 4, 9, 14);
        }
        std::array::from_fn(|i| x[i].wrapping_add(input[i]))
    }

    fn next_u32(&mut self) -> u32 {
        if self.block.is_empty() {
            let mut words = self.block(self.counter).to_vec();
            words.reverse();
            self.block = words;
            self.counter = self.counter.wrapping_add(1);
        }
        self.block.pop().unwrap()
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        lo | (self.next_u32() as u64) << 32
    }

    fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.counter = 0;
        self.block.clear();
    }
}

fn seeds() -> Vec<[u8; 32]> {
    let mut seeds = vec![[0u8; 32], [0xff; 32], std::array::from_fn(|i| i as u8)];
    // The byte seeds `seed_from_u64` derives for a few simulator seeds.
    seeds.extend([1u64, 31403, 0x5A5A_1234].map(|s| {
        let mut state = s;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        seed
    }));
    seeds
}

#[test]
fn seed_from_u64_derives_the_byte_seeds_used_here() {
    let derived = &seeds()[3..];
    for (s, seed) in [1u64, 31403, 0x5A5A_1234].into_iter().zip(derived) {
        let mut a = ChaCha8Rng::seed_from_u64(s);
        let mut b = ChaCha8Rng::from_seed(*seed);
        assert!((0..40).all(|_| a.next_u64() == b.next_u64()), "seed {s}");
    }
}

#[test]
fn keystream_matches_the_scalar_reference() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::from_seed(seed);
        let mut reference = Reference::new(seed, 4);
        // 1000 words: fifteen refills of four blocks and part of another.
        for i in 0..1000 {
            assert_eq!(rng.next_u32(), reference.next_u32(), "word {i}");
        }
    }
}

#[test]
fn reads_straddling_a_refill_match_the_reference() {
    let seed = seeds()[4];
    for lead in 0..70 {
        let mut rng = ChaCha8Rng::from_seed(seed);
        let mut reference = Reference::new(seed, 4);
        // `lead` single words put every u64 read that follows at each
        // offset within the 64-word refill, including word 63 → 64.
        for _ in 0..lead {
            assert_eq!(rng.next_u32(), reference.next_u32());
        }
        for i in 0..200 {
            assert_eq!(rng.next_u64(), reference.next_u64(), "lead {lead}, u64 {i}");
        }
        let mut bytes = [0u8; 23];
        rng.fill_bytes(&mut bytes);
        let mut want = Vec::new();
        for _ in 0..6 {
            want.extend(reference.next_u32().to_le_bytes());
        }
        assert_eq!(bytes[..], want[..23], "lead {lead}");
    }
}

#[test]
fn set_stream_matches_the_reference() {
    for seed in seeds() {
        let mut rng = ChaCha8Rng::from_seed(seed);
        let mut reference = Reference::new(seed, 4);
        for (stream, reads) in [(0u64, 37), (1, 100), (0x4a00_0000, 64), (u64::MAX, 130)] {
            rng.set_stream(stream);
            reference.set_stream(stream);
            for i in 0..reads {
                assert_eq!(
                    rng.next_u64(),
                    reference.next_u64(),
                    "stream {stream}, u64 {i}"
                );
            }
        }
    }
}

#[test]
fn rfc8439_block_function_known_answer() {
    // RFC 8439 §2.3.2: key 00..1f, block counter 1, nonce
    // 00:00:00:09:00:00:00:4a:00:00:00:00. The 64-bit counter + 64-bit
    // stream layout maps the counter and the first nonce word onto block
    // counter 1 | 0x0900_0000 << 32, and the rest of the nonce onto stream
    // 0x4a00_0000.
    const WANT: [u32; 16] = [
        0xe4e7_f110,
        0x1559_3bd1,
        0x1fdd_0f50,
        0xc471_20a3,
        0xc7f4_d1c7,
        0x0368_c033,
        0x9aaa_2204,
        0x4e6c_d4c3,
        0x4664_82d2,
        0x09aa_9f07,
        0x05d7_c214,
        0xa202_8bd9,
        0xd19c_12b5,
        0xb94e_16de,
        0xe883_d0cb,
        0x4e3c_50a2,
    ];
    let key: [u8; 32] = std::array::from_fn(|i| i as u8);
    let counter = 1 | (0x0900_0000u64 << 32);

    let mut reference = Reference::new(key, 10);
    reference.set_stream(0x4a00_0000);
    assert_eq!(reference.block(counter), WANT);

    let mut rng = ChaCha20Rng::from_seed(key);
    rng.set_stream(0x4a00_0000);
    rng.set_word_pos(counter as u128 * 16);
    let got: [u32; 16] = std::array::from_fn(|_| rng.next_u32());
    assert_eq!(got, WANT);
    // The next three blocks come from the same refill.
    for block in 1..4 {
        let want = reference.block(counter + block);
        let got: [u32; 16] = std::array::from_fn(|_| rng.next_u32());
        assert_eq!(got, want, "block {block}");
    }
}
