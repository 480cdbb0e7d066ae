//! The server's connection registry tracks open connections only: many
//! short-lived clients in sequence leave no fds or threads behind, and the
//! server keeps answering. Alone in its own test binary, so the process's
//! fd count moves only with this server.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pangolin::{PglConfig, PglPool};
use pgl_kv::store::PglStore;
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_server::proto::Response;
use pgl_server::{Client, KvServer, ServiceConfig};

const CLIENTS: usize = 300;

/// Open fds of this process, where the platform exposes them.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

#[test]
fn closed_connections_leave_the_registry_and_the_server_keeps_answering() {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let store = PglStore::new(PglPool::create(dev, cfg).unwrap());
    let server = KvServer::start(store, ServiceConfig::default(), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.put(1, 10).unwrap(), Response::Value(None));
    drop(client);
    let before = open_fds();

    for i in 0..CLIENTS as u64 {
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.get(1).unwrap(), Response::Value(Some(10)), "client {i}");
    }

    if let Some(before) = before {
        // Each connection thread closes its fds once it sees the peer's
        // close; give the last few a moment to get there.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut now = open_fds().unwrap();
        while now > before + 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            now = open_fds().unwrap();
        }
        assert!(now <= before + 8, "fds grew from {before} to {now} over {CLIENTS} closed clients");
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.put(2, 20).unwrap(), Response::Value(None));
    assert_eq!(client.get(2).unwrap(), Response::Value(Some(20)));
    server.shutdown();
}
