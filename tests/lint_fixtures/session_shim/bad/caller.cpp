// VIOLATING fixture (rule: session-shim): outside src/core/ a session runs
// through core::run_session; the StreamingSession forwards and the old
// per-path methods are flagged in every spelling.
namespace streamcast::core {
struct SessionConfig {};
struct QosReport {};
class StreamingSession {  // expect: session-shim
 public:
  explicit StreamingSession(SessionConfig) {}  // expect: session-shim
  QosReport run() const { return {}; }
  QosReport run_lossy() const { return {}; }  // expect: session-shim
  QosReport run_scale () const { return {}; }  // expect: session-shim
  QosReport run_startup() const { return {}; }  // expect: session-shim
};
}  // namespace streamcast::core

namespace fixture {

using streamcast::core::QosReport;
using streamcast::core::SessionConfig;
using Session = streamcast::core::StreamingSession;  // expect: session-shim

QosReport lossy(const SessionConfig& cfg) {
  return Session(cfg).run_lossy();  // expect: session-shim
}

QosReport scale(const SessionConfig& cfg) {
  const Session session{cfg};
  return session.run_scale();  // expect: session-shim
}

}  // namespace fixture
