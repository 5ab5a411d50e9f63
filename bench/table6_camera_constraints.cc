// Reproduces paper Table 6: key constraints and operations of input values for
// the camera driverlet — the MBOX_WRITE taint sink of the queue base, the
// buf_size >= img_size constraint, and the img_size round-trip (it is assigned
// by VC4, sent back in the bulk-receive request, and must exactly match the
// transmission size VC4 later reports).
#include <cstdio>

#include "src/workload/deploy_util.h"
#include "src/dev/vc4/vchiq_proto.h"

int main() {
  using namespace dlt;
  Rpi3Testbed dev{TestbedOptions{}};
  Result<RecordCampaign> campaign = RecordCameraCampaign(&dev);
  if (!campaign.ok()) {
    return 1;
  }
  const InteractionTemplate* tpl = nullptr;
  for (const auto& t : campaign->templates()) {
    if (t.name == "OneShot") {
      tpl = &t;
    }
  }
  if (tpl == nullptr) {
    return 1;
  }

  std::printf("Table 6: key constraints and operations of input values for Camera\n");
  std::printf("(from the OneShot template; queue and pg_list are from dma_alloc)\n");
  PrintRule();

  std::printf("MBOX_WRITE sink (queue base handed to VC4):\n");
  for (const auto& e : tpl->events) {
    if (e.kind == EventKind::kRegWrite && e.reg_off == kMboxWrite && e.value != nullptr &&
        !e.value->is_const()) {
      std::printf("  MBOX_WRITE = %s\n", e.value->ToString().c_str());
    }
  }

  std::printf("\nDMA allocations (state-changing; fixed number per template):\n");
  for (const auto& e : tpl->events) {
    if (e.kind == EventKind::kDmaAlloc) {
      std::printf("  %-6s = dma_alloc(%s)%s\n", e.bind.c_str(),
                  e.value != nullptr ? e.value->ToString().c_str() : "?",
                  e.constraint.empty() ? "" : ("  with " + e.constraint.ToString()).c_str());
    }
  }

  std::printf("\nState-changing shared-memory inputs and their constraints:\n");
  int shown = 0;
  for (const auto& e : tpl->events) {
    if ((e.kind == EventKind::kShmRead || e.kind == EventKind::kPollShm) && e.state_changing) {
      if (e.kind == EventKind::kPollShm) {
        std::printf("  poll %-28s until (v & 0x%x) %s 0x%x   [lifted loop, %u iters recorded]\n",
                    e.addr->ToString().c_str(), e.mask, CmpToken(e.poll_cmp), e.want,
                    e.recorded_iters);
      } else if (!e.constraint.empty()) {
        std::printf("  %-6s = read(%s) with %s\n", e.bind.c_str(), e.addr->ToString().c_str(),
                    e.constraint.ToString().c_str());
        ++shown;
      }
    }
    if (shown > 14) {
      std::printf("  ... (%d more)\n", CountEvents(*tpl).input - shown);
      break;
    }
  }

  std::printf("\nimg_size round trip (paper: 'img_size must exactly match'):\n");
  for (const auto& e : tpl->events) {
    if (e.kind == EventKind::kShmWrite && e.value != nullptr && !e.value->is_const()) {
      std::set<std::string> syms;
      e.value->CollectInputs(&syms);
      bool from_device = false;
      for (const auto& s : syms) {
        if (s.rfind("din", 0) == 0) {
          from_device = true;
        }
      }
      if (from_device) {
        std::printf("  write(%s) = %s   (device-assigned value sent back to VC4)\n",
                    e.addr->ToString().c_str(), e.value->ToString().c_str());
      }
    }
  }

  std::printf("\nPaper reference (Table 6):\n");
  std::printf("  resolution : = 720p|1080p|1440p       -> (queue+0x239c0) = resolution\n");
  std::printf("  buf_size   : >= img_size              -> (queue+0x24000) = buf_size\n");
  std::printf("  img_size   : >= 0 && =(queue+0x5630)  -> (queue+0x5e86) = img_size,\n");
  std::printf("                                           (pg_list+0x0) = img_size\n");
  std::printf("  pg_list    : != NULL                  -> (queue+0x24198) = pg_list\n");
  std::printf("  queue      : != NULL                  -> MBOX_WRITE = queue & ~(0x3fff)\n");
  return 0;
}
