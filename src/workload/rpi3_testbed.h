// Rpi3Testbed: assembles the full simulated platform of paper Table 2 — the
// machine, the three devices + media, the normal-world kernel io + gold
// drivers, and (optionally) the TEE with devices assigned via TZASC. Reused by
// tests, benches and examples.
//
// Two roles, mirroring the paper's workflow:
//   - developer machine (secure_io=false): gold drivers run natively; record
//     campaigns execute here and produce signed driverlet packages;
//   - deployment machine (secure_io=true): device instances are assigned to
//     the TEE; normal-world access faults and the replayer serves secure IO.
#ifndef SRC_WORKLOAD_RPI3_TESTBED_H_
#define SRC_WORKLOAD_RPI3_TESTBED_H_

#include <memory>
#include <optional>

#include "src/dev/display/display_controller.h"
#include "src/dev/display/touch_controller.h"
#include "src/dev/uart/uart_controller.h"
#include "src/dev/mmc/mmc_controller.h"
#include "src/dev/usb/dwc2_controller.h"
#include "src/dev/usb/usb_mass_storage.h"
#include "src/dev/vc4/vc4_firmware.h"
#include "src/dev/ftpm/ftpm_device.h"
#include "src/dev/cryptoacc/cryptoacc_device.h"
#include "src/drv/bcm_sdhost_driver.h"
#include "src/drv/ftpm_driver.h"
#include "src/drv/cryptoacc_driver.h"
#include "src/drv/dsi_display_driver.h"
#include "src/drv/touch_driver.h"
#include "src/drv/dwc2_storage_driver.h"
#include "src/drv/vchiq_camera_driver.h"
#include "src/kern/passthrough_io.h"
#include "src/tee/secure_world.h"

namespace dlt {

// Media capacities from the paper: >31M MMC sectors, >15M USB sectors (§7.2).
inline constexpr uint64_t kSdSectors = 0x1df7800;    // ~31.4M sectors (16 GB card)
inline constexpr uint64_t kUsbSectors = 0xf00000;    // ~15.7M sectors (8 GB stick)
inline constexpr PhysAddr kKernPoolBase = 0x0200'0000;
inline constexpr uint64_t kKernPoolSize = 8ull << 20;

struct TestbedOptions {
  bool secure_io = false;        // assign MMC/DMA/USB/VC4 instances to the TEE
  bool probe_drivers = true;     // run full native init (developer machine)
  bool pipelined_camera = false; // native streaming capture mode
};

class Rpi3Testbed {
 public:
  explicit Rpi3Testbed(const TestbedOptions& opts = {});

  Machine& machine() { return machine_; }
  SimClock& clock() { return machine_.clock(); }
  PassthroughIo& kern_io() { return *kern_io_; }
  SecureWorld& tee() { return *tee_; }

  uint16_t dma_id() const { return 0; }
  uint16_t mmc_id() const { return mmc_id_; }
  uint16_t usb_id() const { return usb_id_; }
  uint16_t vchiq_id() const { return vchiq_id_; }
  uint16_t display_id() const { return display_id_; }
  uint16_t touch_id() const { return touch_id_; }
  uint16_t uart_id() const { return uart_id_; }
  uint16_t ftpm_id() const { return ftpm_id_; }
  uint16_t crypto_id() const { return crypto_id_; }

  MmcController& mmc() { return *mmc_; }
  SdCard& sd_card() { return sd_card_; }
  BlockMedium& sd_medium() { return sd_medium_; }
  Dwc2Controller& usb() { return *usb_; }
  UsbMassStorage& usb_storage() { return *usb_storage_; }
  Vc4Firmware& vc4() { return *vc4_; }
  DisplayController& display() { return *display_; }
  TouchController& touch() { return *touch_; }
  UartController& uart() { return *uart_; }
  FtpmDevice& ftpm() { return *ftpm_; }
  CryptoaccDevice& cryptoacc() { return *cryptoacc_; }

  BcmSdhostDriver& mmc_driver() { return *mmc_driver_; }
  Dwc2StorageDriver& usb_driver() { return *usb_driver_; }
  VchiqCameraDriver& cam_driver() { return *cam_driver_; }
  TouchDriver& touch_driver() { return *touch_driver_; }
  FtpmDriver& ftpm_driver() { return *ftpm_driver_; }

  // Driver configs, for constructing per-record-run driver instances that
  // route through a RecordSession instead of the kernel io.
  BcmSdhostDriver::Config mmc_config() const { return mmc_cfg_; }
  Dwc2StorageDriver::Config usb_config() const { return usb_cfg_; }
  VchiqCameraDriver::Config cam_config() const { return cam_cfg_; }
  DsiDisplayDriver::Config display_config() const { return display_cfg_; }
  TouchDriver::Config touch_config() const { return touch_cfg_; }
  FtpmDriver::Config ftpm_config() const { return ftpm_cfg_; }
  CryptoaccDriver::Config crypto_config() const { return crypto_cfg_; }

  // Returns every IO device (not the DMA engine) to the post-init clean state.
  void ResetDevices();

  // MmioDevice::StateDigest of device |id|; nullopt for an unknown id or a
  // device that never proves clean.
  std::optional<uint64_t> DeviceStateDigest(uint16_t id) const;

 private:
  Machine machine_;
  BlockMedium sd_medium_{kSdSectors};
  BlockMedium usb_medium_{kUsbSectors};
  SdCard sd_card_{&sd_medium_};
  std::unique_ptr<MmcController> mmc_;
  std::unique_ptr<Dwc2Controller> usb_;
  std::unique_ptr<UsbMassStorage> usb_storage_;
  std::unique_ptr<Vc4Firmware> vc4_;
  std::unique_ptr<DisplayController> display_;
  std::unique_ptr<TouchController> touch_;
  std::unique_ptr<UartController> uart_;
  std::unique_ptr<FtpmDevice> ftpm_;
  std::unique_ptr<CryptoaccDevice> cryptoacc_;
  uint16_t mmc_id_ = 0;
  uint16_t uart_id_ = 0;
  uint16_t display_id_ = 0;
  uint16_t touch_id_ = 0;
  uint16_t usb_id_ = 0;
  uint16_t vchiq_id_ = 0;
  uint16_t ftpm_id_ = 0;
  uint16_t crypto_id_ = 0;

  CmaPool kern_pool_{kKernPoolBase, kKernPoolSize};
  std::unique_ptr<PassthroughIo> kern_io_;
  std::unique_ptr<SecureWorld> tee_;

  BcmSdhostDriver::Config mmc_cfg_;
  Dwc2StorageDriver::Config usb_cfg_;
  VchiqCameraDriver::Config cam_cfg_;
  DsiDisplayDriver::Config display_cfg_;
  TouchDriver::Config touch_cfg_;
  FtpmDriver::Config ftpm_cfg_;
  CryptoaccDriver::Config crypto_cfg_;
  std::unique_ptr<BcmSdhostDriver> mmc_driver_;
  std::unique_ptr<Dwc2StorageDriver> usb_driver_;
  std::unique_ptr<VchiqCameraDriver> cam_driver_;
  std::unique_ptr<TouchDriver> touch_driver_;
  std::unique_ptr<FtpmDriver> ftpm_driver_;
};

}  // namespace dlt

#endif  // SRC_WORKLOAD_RPI3_TESTBED_H_
