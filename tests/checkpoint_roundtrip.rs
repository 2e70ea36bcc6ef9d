//! Checkpoint round-trip coverage across the whole model zoo: every
//! `models::*` factory, under every simulator backend, must survive
//! save → load with bit-identical behavior; malformed files must fail with
//! typed errors, never garbage weights.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqvae::core::checkpoint::{self, Checkpoint, CheckpointError};
use sqvae::core::models::{self, ModelSpec};
use sqvae::core::Autoencoder;
use sqvae::nn::{BackendKind, ExecPolicy, Matrix, Threads};

const DIM: usize = 16;

/// Every factory in the zoo at a 16-feature (4-qubit) scale.
fn zoo() -> Vec<(&'static str, Autoencoder)> {
    let mut rng = StdRng::seed_from_u64(99);
    vec![
        ("classical_ae", models::classical_ae(DIM, 4, &mut rng)),
        ("classical_vae", models::classical_vae(DIM, 4, &mut rng)),
        ("f_bq_ae", models::f_bq_ae(DIM, 1, &mut rng)),
        ("f_bq_vae", models::f_bq_vae(DIM, 1, &mut rng)),
        ("h_bq_ae", models::h_bq_ae(DIM, 1, &mut rng)),
        ("h_bq_vae", models::h_bq_vae(DIM, 1, &mut rng)),
        ("sq_ae", models::sq_ae(DIM, 2, 1, &mut rng)),
        ("sq_vae", models::sq_vae(DIM, 2, 1, &mut rng)),
    ]
}

fn probe() -> Matrix {
    Matrix::from_fn(3, DIM, |r, c| ((r * DIM + c) as f64).sin().abs() * 0.5)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over `bytes`, the digest the checkpoint format itself uses.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn checkpoint_bytes(model: &mut Autoencoder) -> Vec<u8> {
    let ckpt = Checkpoint::capture(model, 7).expect("factory models carry specs");
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).expect("in-memory write succeeds");
    buf
}

#[test]
fn every_factory_round_trips_bit_identically_on_all_backends() {
    let x = probe();
    for backend in [BackendKind::Dense, BackendKind::Fused, BackendKind::Soa] {
        for (name, mut model) in zoo() {
            model.set_exec_policy(ExecPolicy::new(Threads::Off, backend));
            let want = model.reconstruct(&x).expect("direct reconstruct");

            let buf = checkpoint_bytes(&mut model);
            let ckpt = Checkpoint::read_from(buf.as_slice()).expect("read back");
            assert_eq!(ckpt.backend, backend, "{name}: backend survives");
            assert_eq!(ckpt.seed, 7, "{name}: seed survives");
            let mut rebuilt = ckpt.build_model().expect("rebuild");
            // Threads come from the local environment, but the recorded
            // backend must win.
            assert_eq!(rebuilt.exec_policy().backend, backend);

            let got = rebuilt.reconstruct(&x).expect("rebuilt reconstruct");
            assert_eq!(
                bits(&want),
                bits(&got),
                "{name} on {backend:?}: reconstruction must be bit-identical"
            );
            // Sampling (the generative half) must round-trip too.
            let want_s = model.sample(2, &mut StdRng::seed_from_u64(5)).unwrap();
            let got_s = rebuilt.sample(2, &mut StdRng::seed_from_u64(5)).unwrap();
            assert_eq!(bits(&want_s), bits(&got_s), "{name}: sampling round trip");
        }
    }
}

#[test]
fn zoo_checkpoint_bytes_are_pinned() {
    // Freshly built models under the default policy, hashed whole: any
    // change to a factory's RNG draw order, its parameter list layout or the
    // file format shows up here as a different digest.
    let got: Vec<(&str, u64)> = zoo()
        .into_iter()
        .map(|(name, mut model)| (name, fnv1a64(&checkpoint_bytes(&mut model))))
        .collect();
    let want = [
        ("classical_ae", 0x6a8d_6402_71f6_889c),
        ("classical_vae", 0x3021_e99d_71f1_ae47),
        ("f_bq_ae", 0xdc98_f86e_21f7_da6c),
        ("f_bq_vae", 0x83fd_b7e2_3a4a_a6cd),
        ("h_bq_ae", 0x1a30_7914_3f3f_4e8e),
        ("h_bq_vae", 0x38b5_e915_b631_0e75),
        ("sq_ae", 0x4e25_01a1_4e20_b3bc),
        ("sq_vae", 0x5db1_4746_522a_91e6),
    ];
    assert_eq!(got, want);
}

#[test]
fn file_round_trip_through_the_convenience_api() {
    let dir = std::env::temp_dir().join("sqvae-ckpt-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let x = probe();
    for (name, mut model) in zoo() {
        let path = dir
            .join(format!("{name}.ckpt"))
            .to_string_lossy()
            .into_owned();
        checkpoint::save_model(&mut model, 7, &path).expect("save");
        let mut reloaded = checkpoint::load_model(&path).expect("load");
        assert_eq!(
            bits(&model.reconstruct(&x).unwrap()),
            bits(&reloaded.reconstruct(&x).unwrap()),
            "{name}: file round trip"
        );
    }
}

#[test]
fn corrupt_files_yield_typed_errors() {
    let model = &mut zoo().remove(7).1; // sq_vae
    let buf = checkpoint_bytes(model);

    // Bad magic.
    let mut bad = buf.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Checkpoint::read_from(bad.as_slice()),
        Err(CheckpointError::BadMagic)
    ));

    // Future format version.
    let mut future = buf.clone();
    future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Checkpoint::read_from(future.as_slice()),
        Err(CheckpointError::UnsupportedVersion { found: u32::MAX })
    ));

    // A flipped body bit fails the checksum before any weight is trusted.
    let mut flipped = buf.clone();
    let mid = 20 + (buf.len() - 28) / 2;
    flipped[mid] ^= 0x01;
    assert!(matches!(
        Checkpoint::read_from(flipped.as_slice()),
        Err(CheckpointError::ChecksumMismatch)
    ));

    // Truncation at every section boundary is an I/O error, not a panic.
    for cut in [0, 7, 11, 19, buf.len() / 2, buf.len() - 1] {
        match Checkpoint::read_from(&buf[..cut]) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("truncation at {cut} gave {other:?}"),
        }
    }

    // Extra bytes inside the declared body (with a recomputed valid
    // checksum, so only the structural check can catch them) are rejected.
    let body_len = u64::from_le_bytes(buf[12..20].try_into().unwrap()) as usize;
    let mut padded_body = buf[20..20 + body_len].to_vec();
    padded_body.push(0);
    let mut padded = buf[..12].to_vec();
    padded.extend_from_slice(&(padded_body.len() as u64).to_le_bytes());
    padded.extend_from_slice(&padded_body);
    let digest = fnv1a64(&padded_body);
    padded.extend_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        Checkpoint::read_from(padded.as_slice()),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn specs_the_factories_reject_are_corrupt_on_read() {
    // A well-formed file whose spec no factory can build (amplitude widths
    // that are not powers of two, as many patches as features, a register
    // past the simulator's limit) must fail on read with a typed error, not
    // panic later in `build_model`.
    let mut ckpt = Checkpoint::capture(&mut zoo().remove(7).1, 7).unwrap();
    for spec in [
        ModelSpec::SqVae {
            input_dim: 1000,
            p: 3,
            n_layers: 1,
        },
        ModelSpec::SqVae {
            input_dim: 16,
            p: 16,
            n_layers: 1,
        },
        ModelSpec::HBqAe {
            input_dim: 1 << 25,
            n_layers: 1,
        },
    ] {
        let tag = spec.to_string();
        ckpt.spec = spec;
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        match Checkpoint::read_from(buf.as_slice()) {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains(&tag), "{tag}: {msg}"),
            other => panic!(
                "{tag}: expected a corrupt-spec error, got {:?}",
                other.map(|c| c.spec)
            ),
        }
    }
}

#[test]
fn restoring_across_architectures_is_rejected() {
    let mut zoo = zoo();
    let small = &mut zoo[7].1; // sq_vae(16, 2, 1)
    let buf = checkpoint_bytes(small);
    let ckpt = Checkpoint::read_from(buf.as_slice()).unwrap();
    // A different architecture refuses the foreign weights...
    let mut other = models::classical_ae(DIM, 4, &mut StdRng::seed_from_u64(1));
    let fingerprint = |m: &mut Autoencoder| -> Vec<Vec<u64>> {
        use sqvae::core::ParamGroup;
        [ParamGroup::Quantum, ParamGroup::Classical]
            .into_iter()
            .flat_map(|g| {
                m.parameters_of(g)
                    .iter()
                    .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                    .collect::<Vec<Vec<u64>>>()
            })
            .collect()
    };
    let before = fingerprint(&mut other);
    assert!(ckpt.params.restore(&mut other).is_err());
    // ...and is left untouched by the failed restore.
    assert_eq!(before, fingerprint(&mut other));
}
